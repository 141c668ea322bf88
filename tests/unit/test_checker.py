"""Unit tests for the sampling checker (repro.certify.check_invariant) and result objects."""

import pytest

from repro.cfg.labels import Label, LabelKind
from repro.certify import check_invariant
from repro.invariants.result import Invariant, SynthesisResult
from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.template import TemplateSet
from repro.spec.assertions import ConjunctiveAssertion, parse_assertion
from repro.spec.preconditions import Precondition


def make_invariant(cfg, per_label, postconditions=None):
    assertions = {}
    function = cfg.function(cfg.program.main)
    for label in function.labels:
        assertions[label] = per_label.get(label.index, ConjunctiveAssertion.true())
    return Invariant(assertions=assertions, postconditions=postconditions or {})


def test_correct_invariant_passes_simulation(sum_cfg, sum_precondition):
    """The paper's target bound at label 9 plus trivial assertions elsewhere is a real invariant."""
    invariant = make_invariant(
        sum_cfg,
        {9: parse_assertion("0.5*n_init^2 + 0.5*n_init + 1 - ret_sum > 0")},
    )
    report = check_invariant(
        sum_cfg,
        sum_precondition,
        invariant,
        argument_sets=[{"n": n} for n in range(1, 12)],
        pair_samples=0,
    )
    assert report.passed
    assert report.simulation_runs == 11
    assert report.simulation_elements_checked > 20


def test_wrong_invariant_caught_by_simulation(sum_cfg, sum_precondition):
    invariant = make_invariant(sum_cfg, {9: parse_assertion("ret_sum - 1000 > 0")})
    report = check_invariant(
        sum_cfg,
        sum_precondition,
        invariant,
        argument_sets=[{"n": 5}],
        pair_samples=0,
    )
    assert not report.passed
    assert any(violation.kind == "invariant" for violation in report.violations)


def test_non_inductive_invariant_caught_by_pair_sampling(sum_cfg, sum_precondition):
    # "i <= 3" holds on short runs but is not inductive: pair sampling finds a counterexample
    # to consecution even without running the program.
    invariant = make_invariant(sum_cfg, {7: parse_assertion("4 - i > 0")})
    report = check_invariant(
        sum_cfg,
        sum_precondition,
        invariant,
        argument_sets=[],
        pair_samples=120,
        sample_range=10.0,
        rng_seed=3,
    )
    assert not report.passed


def test_trivial_invariant_passes_everything(sum_cfg, sum_precondition):
    invariant = make_invariant(sum_cfg, {})
    report = check_invariant(
        sum_cfg,
        sum_precondition,
        invariant,
        argument_sets=[{"n": 3}],
        pair_samples=20,
    )
    assert report.passed
    assert "PASS" in report.summary()


def test_recursive_invariant_simulation(recursive_sum_cfg):
    precondition = Precondition.from_spec(recursive_sum_cfg, {"recursive_sum": {1: "n >= 0"}})
    function = recursive_sum_cfg.function("recursive_sum")
    assertions = {label: ConjunctiveAssertion.true() for label in function.labels}
    post = parse_assertion("0.5*n_init^2 + 0.5*n_init + 1 - ret_recursive_sum > 0")
    invariant = Invariant(assertions=assertions, postconditions={"recursive_sum": post})
    report = check_invariant(
        recursive_sum_cfg,
        precondition,
        invariant,
        argument_sets=[{"n": n} for n in range(0, 8)],
        pair_samples=0,
    )
    assert report.passed


# -- result objects ---------------------------------------------------------------------


def test_invariant_lookup_helpers(sum_cfg):
    label = sum_cfg.function("sum").label_by_index(9)
    invariant = Invariant(assertions={label: parse_assertion("ret_sum + 1 > 0")})
    assert not invariant.at(label).is_true()
    assert not invariant.at_index("sum", 9).is_true()
    assert invariant.at_index("sum", 1).is_true()
    assert invariant.at(Label("sum", 77, LabelKind.ASSIGN)).is_true()
    assert invariant.postcondition("sum").is_true()
    assert "sum:9" in invariant.pretty()


def test_synthesis_result_summary(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=1)
    result = SynthesisResult(
        invariant=None,
        invariants=[],
        assignment=None,
        system=QuadraticSystem(),
        templates=templates,
        cfg=sum_cfg,
        statistics={"time_translation": 0.5},
        solver_status="infeasible-best-effort",
    )
    assert not result.success
    assert result.system_size == 0
    assert "infeasible" in result.summary()
