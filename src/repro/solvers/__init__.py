"""Step-4 solvers: numeric back-ends for the quadratic systems of Step 3.

The paper solves its systems with the commercial QCLP solver LOQO; this
reproduction replaces it with SciPy-based solvers sharing one compiled
problem IR:

* :mod:`repro.solvers.problem` — :class:`CompiledProblem`, the IR every
  solver consumes: flat residual/Jacobian/penalty evaluation built once per
  system (memoised through :func:`compile_problem`), strict-margin
  rewriting, variable ordering and role masks, plus the solve-time control
  plane (:class:`Deadline`, :class:`SolveControl`).
* :mod:`repro.solvers.batched` — the batched multi-start descent engines
  (per-member Levenberg–Marquardt and L-BFGS over the batch
  kernels of the IR) that vectorise the restart axis of every multi-start
  solver; ``SolverOptions.batch`` selects between them and the retired
  per-restart SciPy loops.
* :class:`~repro.solvers.qclp.PenaltyQCLPSolver` — the default: an
  exact-penalty / multi-restart nonlinear programming solver with analytic
  gradients and a Gauss-Newton polish.
* :class:`~repro.solvers.qclp.GaussNewtonSolver` — the cheap
  pure-feasibility sprint (sparse trust-region least squares on the
  residuals).
* :class:`~repro.solvers.alternating.AlternatingSolver` — exploits the
  bilinear structure of the systems (template coefficients vs. certificate
  multipliers) with block-coordinate penalty sweeps.
* :class:`~repro.solvers.portfolio.PortfolioSolver` — races a configurable
  strategy list on one compiled problem with a shared deadline,
  first-feasible-wins cancellation and warm-start exchange.
* :class:`~repro.solvers.strong.RepresentativeEnumerator` — the practical
  substitute for the Grigor'ev–Vorobjov procedure of Strong synthesis:
  multi-start search plus solution clustering.
* :mod:`repro.solvers.farkas` — the linear baseline in the spirit of
  [Colón et al. 2003] used for comparison experiments.

Every solver works in floats.  Whether a solution really yields an invariant
is decided outside this package, by the exact rational certificate of
:mod:`repro.certify` (``lift_solution`` + ``check_certificate``).
"""

from repro.solvers.alternating import AlternatingSolver
from repro.solvers.base import Solver, SolverOptions, SolverResult
from repro.solvers.batched import (
    BatchDescent,
    KernelCounters,
    batched_least_squares,
    batched_penalty_descent,
    run_multistart,
    start_batch,
    winning_member,
)
from repro.solvers.farkas import farkas_translate, linear_baseline_system
from repro.solvers.portfolio import (
    DEFAULT_PORTFOLIO,
    PortfolioSolver,
    STRATEGIES,
    make_solver,
    strategy_names,
)
from repro.solvers.problem import (
    CompiledProblem,
    Deadline,
    SolveControl,
    SolverInterrupted,
    compile_problem,
)
from repro.solvers.qclp import GaussNewtonSolver, PenaltyQCLPSolver
from repro.solvers.strong import RepresentativeEnumerator

__all__ = [
    "AlternatingSolver",
    "BatchDescent",
    "CompiledProblem",
    "DEFAULT_PORTFOLIO",
    "Deadline",
    "GaussNewtonSolver",
    "KernelCounters",
    "PenaltyQCLPSolver",
    "PortfolioSolver",
    "RepresentativeEnumerator",
    "STRATEGIES",
    "SolveControl",
    "Solver",
    "SolverInterrupted",
    "SolverOptions",
    "SolverResult",
    "batched_least_squares",
    "batched_penalty_descent",
    "compile_problem",
    "farkas_translate",
    "linear_baseline_system",
    "make_solver",
    "run_multistart",
    "start_batch",
    "strategy_names",
    "winning_member",
]
