"""Unit tests for the certificate subsystem (repro.certify)."""

from fractions import Fraction

import pytest

from repro.certify import (
    Certificate,
    check_certificate,
    derive_argument_sets,
    exact_violations,
    ldl_decompose,
    lift_solution,
    rationalize,
    solve_linear,
)
from repro.certify.sampling import check_invariant
from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.synthesis import build_task
from repro.pipeline.jobs import job_from_benchmark
from repro.polynomial.parse import parse_polynomial
from repro.solvers.base import DEFAULT_STRICT_MARGIN, SolverOptions
from repro.solvers.portfolio import make_solver
from repro.solvers.problem import CompiledProblem, SolveControl, compile_problem
from repro.suite.running_example import RUNNING_EXAMPLE

F = Fraction


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def test_solve_linear_prefers_the_guess_on_free_columns():
    # x0 + x1 = 3 with guess (1, 1): x1 stays free at 1, x0 becomes 2.
    solution = solve_linear([[F(1), F(1)]], [F(3)], [F(1), F(1)])
    assert solution == [F(2), F(1)]


def test_solve_linear_detects_inconsistency():
    matrix = [[F(1), F(2)], [F(2), F(4)]]
    assert solve_linear(matrix, [F(1), F(3)], [F(0), F(0)]) is None
    assert solve_linear(matrix, [F(1), F(2)], [F(0), F(0)]) is not None


def test_ldl_decides_psd_exactly():
    psd = [[F(2), F(1)], [F(1), F(2)]]
    decomposition = ldl_decompose(psd)
    assert decomposition is not None
    lower, diagonal = decomposition
    # L D L^T reproduces the matrix exactly.
    n = len(psd)
    for i in range(n):
        for j in range(n):
            value = sum(lower[i][k] * diagonal[k] * lower[j][k] for k in range(n))
            assert value == psd[i][j]
    assert ldl_decompose([[F(1), F(2)], [F(2), F(1)]]) is None  # indefinite
    # Boundary case: singular PSD passes, singular-with-coupling fails.
    assert ldl_decompose([[F(0), F(0)], [F(0), F(1)]]) is not None
    assert ldl_decompose([[F(0), F(1)], [F(1), F(0)]]) is None


# ---------------------------------------------------------------------------
# Rationalization and exact system evaluation
# ---------------------------------------------------------------------------


def test_rationalize_snaps_solver_noise_to_clean_rationals():
    snapped = rationalize({"a": 0.50000001, "b": -1e-12}, max_denominator=4)
    assert snapped == {"a": F(1, 2), "b": F(0)}


def test_exact_violations_has_no_float_tolerance():
    system = QuadraticSystem()
    system.add_equality(parse_polynomial("$s_x_1_0_0 - 1"), origin="eq")
    system.add_positive(parse_polynomial("$s_x_1_0_1"), origin="gt")
    exact_point = {"$s_x_1_0_0": F(1), "$s_x_1_0_1": F(1, 10**9)}
    assert exact_violations(system, exact_point) == []
    # An equality off by 1e-30 is still a violation; a witness of exactly 0 fails > 0.
    off = {"$s_x_1_0_0": F(1) + F(1, 10**30), "$s_x_1_0_1": F(0)}
    kinds = {violation.kind for violation in exact_violations(system, off)}
    assert kinds == {"eq", "gt"}


# ---------------------------------------------------------------------------
# Solver-option centralisation (strict margin / tolerance)
# ---------------------------------------------------------------------------


def test_custom_strict_margin_reaches_the_residual_rewrite():
    system = QuadraticSystem()
    system.add_positive(parse_polynomial("$s_f_1_0_0"), origin="witness")
    problem = compile_problem(system, strict_margin=0.5)
    import numpy as np

    # At 0.3 the constraint value is positive but below the margin: the
    # residual rewrite (p > 0  ->  p >= margin) must flag it.
    residuals = problem.residuals(np.array([0.3]))
    assert residuals[0] == pytest.approx(0.3 - 0.5)
    # The default-margin compilation considers the same point feasible.
    default_problem = compile_problem(system)
    assert default_problem.strict_margin == DEFAULT_STRICT_MARGIN
    assert default_problem.max_violation(np.array([0.3])) == 0.0


def test_solver_options_margin_threads_through_solve():
    system = QuadraticSystem()
    system.add_positive(parse_polynomial("$s_f_1_0_0"), origin="witness")
    solver = make_solver("gauss-newton", options=SolverOptions(strict_margin=0.25, restarts=1))
    result = solver.solve(system)
    assert result.feasible
    assert result.assignment["$s_f_1_0_0"] >= 0.25 - 1e-6


def test_solve_control_default_tolerance_comes_from_the_shared_constant():
    from repro.solvers.base import DEFAULT_TOLERANCE

    assert SolveControl().tolerance == DEFAULT_TOLERANCE
    assert SolveControl(tolerance=1e-3).tolerance == 1e-3
    assert CompiledProblem(QuadraticSystem()).strict_margin == DEFAULT_STRICT_MARGIN


# ---------------------------------------------------------------------------
# Sampling tier: derived arguments and reproducible seeding
# ---------------------------------------------------------------------------


def test_derive_argument_sets_respects_the_precondition_box(sum_cfg, sum_precondition):
    argument_sets = derive_argument_sets(sum_cfg, sum_precondition, runs=6, rng_seed=1)
    assert argument_sets
    # n >= 1 at the entry: every derived argument satisfies the box.
    assert all(arguments["n"] >= 1 for arguments in argument_sets)
    # Deterministic under the same seed.
    assert argument_sets == derive_argument_sets(sum_cfg, sum_precondition, runs=6, rng_seed=1)


def test_check_invariant_simulates_without_explicit_arguments(sum_cfg, sum_precondition):
    from repro.invariants.result import Invariant
    from repro.spec.assertions import parse_assertion

    function = sum_cfg.function("sum")
    label = function.label_by_index(9)
    invariant = Invariant(assertions={label: parse_assertion("ret_sum - 1000 > 0")})
    # No argument sets: simulation arguments derive from the precondition box
    # instead of silently skipping, so the wrong invariant is caught.
    report = check_invariant(sum_cfg, sum_precondition, invariant, pair_samples=0, rng_seed=3)
    assert report.simulation_runs > 0
    assert not report.passed


def test_check_invariant_stops_at_its_time_budget(sum_cfg, sum_precondition):
    from repro.invariants.result import Invariant

    invariant = Invariant(assertions={})
    report = check_invariant(sum_cfg, sum_precondition, invariant, time_budget=0.0)
    assert report.timed_out and not report.passed
    assert not report.violations
    assert "time budget exhausted" in report.summary()
    assert check_invariant(sum_cfg, sum_precondition, invariant, time_budget=60.0).passed


def test_check_invariant_is_reproducible_per_seed(sum_cfg, sum_precondition):
    from repro.invariants.result import Invariant

    invariant = Invariant(assertions={})
    first = check_invariant(sum_cfg, sum_precondition, invariant, rng_seed=7)
    second = check_invariant(sum_cfg, sum_precondition, invariant, rng_seed=7)
    assert first.simulation_elements_checked == second.simulation_elements_checked
    assert first.pair_samples == second.pair_samples


# ---------------------------------------------------------------------------
# Lift + certificate round trip on the running example
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def certified_sum():
    benchmark = RUNNING_EXAMPLE
    job = job_from_benchmark(benchmark, quick=True)
    task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), job.options)
    solver = make_solver(
        "portfolio", options=SolverOptions(restarts=1, max_iterations=200, time_limit=60.0)
    )
    result = solver.solve(task.system)
    assert result.feasible
    lift = lift_solution(task, result.assignment)
    assert lift.ok, lift.reason
    return task, lift


def test_lift_produces_a_checkable_certificate(certified_sum):
    task, lift = certified_sum
    check = check_certificate(lift.certificate, task=task)
    assert check.ok, check.summary()
    assert check.pairs_checked == len(task.pairs)
    # Exact values: every template coefficient is a bona fide Fraction.
    assert all(isinstance(value, Fraction) for value in lift.exact_assignment.values())


def test_certificate_round_trips_through_json(certified_sum):
    task, lift = certified_sum
    rebuilt = Certificate.from_json(lift.certificate.to_json())
    assert check_certificate(rebuilt, task=task).ok
    assert rebuilt.to_dict() == lift.certificate.to_dict()


def test_task_binding_rejects_a_foreign_assignment(certified_sum):
    task, lift = certified_sum
    tampered_assignment = dict(lift.certificate.assignment)
    name = next(iter(tampered_assignment))
    tampered_assignment[name] += 7
    tampered = Certificate(
        scheme=lift.certificate.scheme,
        assignment=tampered_assignment,
        pairs=lift.certificate.pairs,
        denominator=lift.certificate.denominator,
    )
    # Internally consistent pairs, but no longer bound to the task's reduction.
    assert not check_certificate(tampered, task=task).ok


def test_tampered_witness_is_rejected(certified_sum):
    task, lift = certified_sum
    pair = lift.certificate.pairs[0]
    assert pair.witness is not None
    from dataclasses import replace

    tampered_pair = replace(pair, witness=pair.witness + 1)
    tampered = Certificate(
        scheme=lift.certificate.scheme,
        assignment=lift.certificate.assignment,
        pairs=(tampered_pair, *lift.certificate.pairs[1:]),
        denominator=lift.certificate.denominator,
    )
    check = check_certificate(tampered)
    assert not check.ok
    assert "identity" in check.failures[0][1]
