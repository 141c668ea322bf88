"""Unit tests for the linear Farkas baseline (repro.solvers.farkas)."""

from repro.invariants.constraints import ConstraintPair
from repro.polynomial.parse import parse_polynomial
from repro.solvers.farkas import can_express_target, farkas_translate, linear_baseline_system


def test_farkas_translate_is_single_factor_handelman():
    pair = ConstraintPair(
        name="pair",
        assumptions=(parse_polynomial("x"),),
        conclusion=parse_polynomial("$s_f_1_0_0 * x + 1"),
        program_variables=("x",),
    )
    system = farkas_translate([pair])
    assert system.size > 0
    for constraint in system:
        assert constraint.polynomial.degree() <= 2


def test_linear_baseline_system_builds_degree_one_templates(sum_cfg, sum_precondition):
    templates, system = linear_baseline_system(sum_cfg, sum_precondition)
    assert templates.degree == 1
    assert system.size > 0


def test_can_express_target_detects_quadratic_targets(sum_cfg, sum_precondition):
    templates, _ = linear_baseline_system(sum_cfg, sum_precondition)
    quadratic_target = parse_polynomial("0.5*n_init^2 + 0.5*n_init + 1 - ret_sum")
    linear_target = parse_polynomial("n_init - ret_sum + 1")
    assert not can_express_target(templates, quadratic_target, "sum", 9)
    assert can_express_target(templates, linear_target, "sum", 9)
