"""repro — polynomial invariant generation for non-deterministic recursive programs.

A faithful, pure-Python reproduction of

    Chatterjee, Fu, Goharshady, Goharshady.
    "Polynomial Invariant Generation for Non-deterministic Recursive Programs."
    PLDI 2020.

Quickstart
----------
All four paper algorithms go through one typed front door — the
:class:`~repro.api.engine.Engine`:

>>> from repro import Engine, SynthesisRequest, SynthesisOptions, TargetInvariantObjective
>>> from repro.polynomial import parse_polynomial
>>> source = '''
... sum(n) {
...     i := 1; s := 0;
...     while i <= n do
...         if * then s := s + i else skip fi;
...         i := i + 1
...     od;
...     return s
... }
... '''
>>> request = SynthesisRequest(
...     program=source, mode="weak",
...     precondition={"sum": {1: "n >= 0"}},
...     objective=TargetInvariantObjective(
...         function="sum", label_index=9,
...         target=parse_polynomial("1 + 0.5*n_init + 0.5*n_init^2 - ret_sum")),
...     options=SynthesisOptions(degree=2))
>>> with Engine() as engine:                                       # doctest: +SKIP
...     response = engine.synthesize(request)
...     print(response.status, response.to_json())

Requests and responses round-trip through JSON; ``Engine.map(requests)``
streams completed responses as they finish; ``Engine.submit`` returns a
future-style handle.  The paper-named functions (:func:`weak_inv_synth` and
friends) remain as thin wrappers over a shared module-level engine:

>>> from repro import weak_inv_synth
>>> result = weak_inv_synth(source, {"sum": {1: "n >= 0"}})        # doctest: +SKIP

See ``examples/`` for complete runnable scenarios and ``DESIGN.md`` for the
mapping between the paper's sections and the packages of this library.
"""

from repro.errors import (
    InfeasibleError,
    ParseError,
    PolynomialError,
    ReproError,
    SemanticsError,
    SolverError,
    SpecificationError,
    SynthesisError,
    ValidationError,
)
from repro.api import (
    Engine,
    ErrorInfo,
    RequestValidationError,
    SynthesisHandle,
    SynthesisRequest,
    SynthesisResponse,
    default_engine,
    reset_default_engine,
)
from repro.certify import (
    Certificate,
    CertificateCheck,
    CheckReport,
    LiftResult,
    VerificationOutcome,
    check_certificate,
    check_invariant,
    lift_solution,
    repair_solution,
    verify_solution,
)
from repro.cfg import build_cfg
from repro.invariants import (
    Invariant,
    QuadraticSystem,
    SynthesisOptions,
    SynthesisResult,
    SynthesisTask,
    TemplateSet,
    build_task,
    generate_constraint_pairs,
    rec_strong_inv_synth,
    rec_weak_inv_synth,
    strong_inv_synth,
    weak_inv_synth,
)
from repro.lang import parse_program, pretty_print
from repro.pipeline import SynthesisJob, TaskCache, job_from_benchmark
from repro.reduction import (
    AUTO_DEGREE,
    EscalationTrace,
    ReductionPlan,
    StageCache,
    compile_plan,
)
from repro.polynomial import Monomial, Polynomial, parse_polynomial
from repro.schedule import SchedulePlan, Scheduler, SolveCorpus
from repro.store import BlobStore, EngineStore, open_store
from repro.semantics import Interpreter
from repro.spec import (
    ConjunctiveAssertion,
    FeasibilityObjective,
    Postcondition,
    Precondition,
    TargetInvariantObjective,
    parse_assertion,
)
from repro.solvers import (
    AlternatingSolver,
    CompiledProblem,
    GaussNewtonSolver,
    PenaltyQCLPSolver,
    PortfolioSolver,
    RepresentativeEnumerator,
    compile_problem,
)

__version__ = "1.0.0"

__all__ = [
    "AUTO_DEGREE",
    "AlternatingSolver",
    "BlobStore",
    "Certificate",
    "CertificateCheck",
    "CheckReport",
    "CompiledProblem",
    "ConjunctiveAssertion",
    "Engine",
    "EngineStore",
    "ErrorInfo",
    "EscalationTrace",
    "FeasibilityObjective",
    "GaussNewtonSolver",
    "InfeasibleError",
    "Interpreter",
    "Invariant",
    "LiftResult",
    "Monomial",
    "ParseError",
    "PenaltyQCLPSolver",
    "Polynomial",
    "PolynomialError",
    "PortfolioSolver",
    "Postcondition",
    "Precondition",
    "QuadraticSystem",
    "ReductionPlan",
    "RepresentativeEnumerator",
    "SchedulePlan",
    "Scheduler",
    "ReproError",
    "RequestValidationError",
    "SemanticsError",
    "SolveCorpus",
    "SolverError",
    "SpecificationError",
    "StageCache",
    "SynthesisError",
    "SynthesisHandle",
    "SynthesisJob",
    "SynthesisOptions",
    "SynthesisRequest",
    "SynthesisResponse",
    "SynthesisResult",
    "SynthesisTask",
    "TaskCache",
    "TargetInvariantObjective",
    "TemplateSet",
    "ValidationError",
    "VerificationOutcome",
    "build_cfg",
    "build_task",
    "check_certificate",
    "check_invariant",
    "compile_plan",
    "compile_problem",
    "default_engine",
    "lift_solution",
    "open_store",
    "repair_solution",
    "verify_solution",
    "generate_constraint_pairs",
    "job_from_benchmark",
    "parse_assertion",
    "parse_polynomial",
    "parse_program",
    "pretty_print",
    "rec_strong_inv_synth",
    "rec_weak_inv_synth",
    "reset_default_engine",
    "strong_inv_synth",
    "weak_inv_synth",
    "__version__",
]
