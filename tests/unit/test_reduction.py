"""Unit tests of the staged reduction: fingerprints, StageCache, escalation."""

import pytest

from repro.api.engine import Engine
from repro.api.errors import RequestValidationError
from repro.api.request import SynthesisRequest
from repro.api.response import SynthesisResponse
from repro.errors import SynthesisError
from repro.invariants.synthesis import SynthesisOptions, build_task
from repro.pipeline.cache import TaskCache
from repro.pipeline.jobs import SynthesisJob
from repro.reduction import AUTO_DEGREE, EscalationTrace, StageCache, compile_plan
from repro.solvers.base import SolverOptions

SOURCE = """
count(n) {
    i := 0;
    while i <= n do
        i := i + 1
    od;
    return i
}
"""
PRE = {"count": {1: "n >= 0"}}
QUICK_SOLVE = SolverOptions(restarts=1, max_iterations=150, time_limit=20.0)


def job(**option_overrides) -> SynthesisJob:
    option_overrides.setdefault("upsilon", 1)
    return SynthesisJob(
        name="count",
        source=SOURCE,
        precondition=PRE,
        options=SynthesisOptions(**option_overrides),
    )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_unused_bound_does_not_split_the_reduction_fingerprint():
    """Regression: with bounded=False, ``bound`` must not participate in the key."""
    a = SynthesisOptions(bounded=False, bound=100)
    b = SynthesisOptions(bounded=False, bound=7)
    assert a.reduction_fingerprint() == b.reduction_fingerprint()

    bounded_a = SynthesisOptions(bounded=True, bound=100)
    bounded_b = SynthesisOptions(bounded=True, bound=7)
    assert bounded_a.reduction_fingerprint() != bounded_b.reduction_fingerprint()


def test_unused_bound_shares_the_cached_task():
    cache = TaskCache()
    task_a, hit_a = cache.get_or_build(job(bound=100))
    task_b, hit_b = cache.get_or_build(job(bound=7))
    assert not hit_a and hit_b
    assert task_a is task_b


def test_handelman_fingerprint_ignores_upsilon_and_sos_at_stage_level():
    plan_a = compile_plan(SOURCE, PRE, None, SynthesisOptions(translation="handelman", upsilon=1))
    plan_b = compile_plan(SOURCE, PRE, None, SynthesisOptions(translation="handelman", upsilon=2, encode_sos=False))
    assert plan_a.translation_key == plan_b.translation_key


def test_degree_auto_cannot_be_compiled_into_a_plan():
    with pytest.raises(SynthesisError):
        compile_plan(SOURCE, PRE, None, SynthesisOptions(degree="auto"))


def test_options_validate_degree_and_max_degree():
    with pytest.raises(SynthesisError):
        SynthesisOptions(degree=0)
    with pytest.raises(SynthesisError):
        SynthesisOptions(degree="cubic")
    with pytest.raises(SynthesisError):
        SynthesisOptions(max_degree=0)
    assert SynthesisOptions(degree=AUTO_DEGREE, max_degree=4).escalation_degrees() == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Stage-level sharing
# ---------------------------------------------------------------------------


def test_degree_sweep_reuses_program_level_stages():
    cache = TaskCache()
    _, _, first = cache.get_or_build_with_report(job(degree=1))
    _, _, second = cache.get_or_build_with_report(job(degree=2))
    by_name = {stage.name: stage.from_cache for stage in second.stages}
    assert not any(stage.from_cache for stage in first.stages)
    assert by_name == {
        "frontend": True,
        "preconditions": True,
        "templates": False,
        "pairs": False,
        "translation": False,
    }


def test_upsilon_sweep_reuses_everything_up_to_translation():
    cache = TaskCache()
    cache.get_or_build(job(upsilon=1))
    _, from_cache, report = cache.get_or_build_with_report(job(upsilon=2))
    assert not from_cache
    by_name = {stage.name: stage.from_cache for stage in report.stages}
    assert by_name == {
        "frontend": True,
        "preconditions": True,
        "templates": True,
        "pairs": True,
        "translation": False,
    }


def test_whole_task_hit_returns_the_same_task_object_and_full_cache_report():
    cache = TaskCache()
    task_a, hit_a, _ = cache.get_or_build_with_report(job())
    task_b, hit_b, report = cache.get_or_build_with_report(job())
    assert not hit_a and hit_b
    assert task_a is task_b
    assert report.task_from_cache
    assert report.timings()["stages_from_cache"] == 5.0


def test_objective_sweep_shares_the_translation_stage():
    from repro.spec.objectives import LinearCoefficientObjective

    cache = TaskCache()
    base = job()
    cache.get_or_build(base)
    entry_name = build_task(SOURCE, PRE, None, base.options).templates.coefficient_names()[0]
    with_objective = SynthesisJob(
        name="count",
        source=SOURCE,
        precondition=PRE,
        objective=LinearCoefficientObjective(weights={entry_name: 1.0}),
        options=base.options,
    )
    _, from_cache, report = cache.get_or_build_with_report(with_objective)
    assert not from_cache  # different task key (objective participates)
    assert all(stage.from_cache for stage in report.stages)  # ... but every stage reused


def test_task_cache_stats_surface_stage_counters():
    cache = TaskCache()
    cache.get_or_build(job(degree=1))
    cache.get_or_build(job(degree=2))
    stats = cache.stats()
    assert stats["misses"] == 2.0
    assert stats["stage_frontend_hits"] == 1.0
    assert stats["stage_translation_misses"] == 2.0
    assert stats["stage_hits"] == 2.0


def test_stage_cache_eviction_is_bounded_per_stage():
    cache = StageCache(max_entries=2)
    for index in range(4):
        cache.get_or_build("frontend", (index,), lambda index=index: index)
    assert len(cache) == 2
    # Evicted keys rebuild; retained keys hit.
    _, hit, _ = cache.get_or_build("frontend", (3,), lambda: 3)
    assert hit
    _, hit, _ = cache.get_or_build("frontend", (0,), lambda: 0)
    assert not hit


def test_stage_cache_builds_once_and_drops_key_locks_under_contention():
    import sys
    import threading
    import time

    cache = StageCache(max_entries=4)
    builds = {"ok": 0}
    counter_lock = threading.Lock()

    def good():
        with counter_lock:
            builds["ok"] += 1
        time.sleep(0.01)  # hold the key lock while other threads queue on it
        return "value"

    def bad():
        raise ValueError("unparsable")

    errors = []

    def worker(index):
        try:
            for round_ in range(20):
                value, _, _ = cache.get_or_build("frontend", ("good",), good)
                assert value == "value"
                try:
                    cache.get_or_build("frontend", ("bad", index % 3, round_), bad)
                except ValueError:
                    pass
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert builds["ok"] == 1  # concurrent lookups of one key build it once
    assert cache._key_locks == {}  # failed and finished builds leave no lock


# ---------------------------------------------------------------------------
# Translation profile
# ---------------------------------------------------------------------------


def test_translation_sub_timings_reach_response_and_stats():
    request = SynthesisRequest(
        program=SOURCE, mode="weak", precondition=PRE,
        options=SynthesisOptions(upsilon=1), solver_options=QUICK_SOLVE,
    )
    with Engine() as engine:
        response = engine.synthesize(request)
        stats = engine.stats()
    assert response.ok
    for phase in ("compile", "fanout", "assemble"):
        assert f"stage_translation_{phase}_seconds" in response.timings
        assert stats[f"translation_{phase}_seconds"] >= 0.0
    split = sum(
        response.timings[f"stage_translation_{phase}_seconds"]
        for phase in ("compile", "fanout", "assemble")
    )
    assert split <= response.timings["stage_translation_seconds"] + 1e-6


# ---------------------------------------------------------------------------
# Adaptive degree escalation
# ---------------------------------------------------------------------------


def test_degree_auto_returns_minimal_feasible_degree():
    request = SynthesisRequest(
        program=SOURCE, mode="weak", precondition=PRE,
        options=SynthesisOptions(degree="auto", upsilon=1),
        solver_options=QUICK_SOLVE,
    )
    with Engine() as engine:
        response = engine.synthesize(request)
    assert response.status == "ok"
    trace = EscalationTrace.from_dict(response.escalation)
    assert trace.final_degree == 1
    assert trace.degrees_tried == [1]
    assert response.task is not None and response.task.options.degree == 1
    assert response.timings["escalation_attempts"] == 1.0


def test_degree_auto_escalates_past_inexpressible_objectives():
    """A quadratic target forces d=1 to fail and d=2 to win (running example shape)."""
    from repro.suite.registry import get_benchmark

    benchmark = get_benchmark("sum")
    request = SynthesisRequest(
        program=benchmark.source, mode="weak", precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=benchmark.options(upsilon=1, degree="auto"),
        solver_options=QUICK_SOLVE,
    )
    with Engine() as engine:
        response = engine.synthesize(request)
    assert response.status == "ok"
    trace = EscalationTrace.from_dict(response.escalation)
    assert trace.final_degree == 2
    assert [attempt.degree for attempt in trace.attempts] == [1, 2]
    assert trace.attempts[0].status == "error"
    assert "degree-1 template" in (trace.attempts[0].error or "")


def test_escalation_shares_stages_between_rungs():
    request = SynthesisRequest(
        program=SOURCE, mode="weak", precondition=PRE,
        options=SynthesisOptions(degree="auto", max_degree=2, upsilon=1),
        solver_options=QUICK_SOLVE,
    )
    with Engine() as engine:
        engine.synthesize(request)
        stats = engine.stats()
    # d=1 succeeds immediately, so one rung ran; its frontend/preconditions
    # stages were fresh.  Re-running the ladder hits everything.
    with Engine() as engine:
        first = engine.synthesize(request)
        second = engine.synthesize(request)
        stats = engine.stats()
    assert first == second
    assert stats["stage_frontend_misses"] == 1.0
    assert stats["hits"] >= 1.0  # the re-run's rung was a whole-task hit


def test_escalation_respects_the_deadline():
    request = SynthesisRequest(
        program=SOURCE, mode="weak", precondition=PRE,
        options=SynthesisOptions(degree="auto", max_degree=3, upsilon=1),
        solver_options=QUICK_SOLVE,
        deadline=1e-9 + 0.011,  # enough to start rung 1, never rung 2+
    )
    with Engine() as engine:
        response = engine.synthesize(request)
    trace = EscalationTrace.from_dict(response.escalation)
    # Whatever rung 1 managed, the ladder never exceeds the deadline by a rung.
    assert len(trace.attempts) <= 3
    if trace.exhausted_deadline:
        assert trace.attempts[-1].status == "deadline-skipped"


def test_escalation_keeps_stage_timings_on_the_winning_rung():
    request = SynthesisRequest(
        program=SOURCE, mode="weak", precondition=PRE,
        options=SynthesisOptions(degree="auto", upsilon=1),
        solver_options=QUICK_SOLVE,
    )
    with Engine() as engine:
        engine.synthesize(request)
        warm = engine.synthesize(request)
    assert warm.timings["stages_from_cache"] == 5.0  # winning rung fully cached
    assert warm.timings["escalation_attempts"] == 1.0


def test_reduce_only_rejects_auto_degree():
    with pytest.raises(RequestValidationError) as excinfo:
        SynthesisRequest(
            program=SOURCE, mode="weak", precondition=PRE,
            options=SynthesisOptions(degree="auto"), reduce_only=True,
        )
    assert any(error["field"] == "options.degree" for error in excinfo.value.errors)


def test_escalation_trace_round_trips_through_response_json():
    request = SynthesisRequest(
        program=SOURCE, mode="weak", precondition=PRE,
        options=SynthesisOptions(degree="auto", upsilon=1),
        solver_options=QUICK_SOLVE,
    )
    with Engine() as engine:
        response = engine.synthesize(request)
    decoded = SynthesisResponse.from_json(response.to_json())
    assert decoded == response
    assert decoded.escalation == response.escalation
    assert EscalationTrace.from_dict(decoded.escalation).final_degree == 1


def test_strong_mode_supports_auto_degree():
    request = SynthesisRequest(
        program=SOURCE, mode="strong", precondition=PRE,
        options=SynthesisOptions(degree="auto", max_degree=2, upsilon=1),
        solver_options=SolverOptions(restarts=2, max_iterations=120, time_limit=20.0),
    )
    with Engine() as engine:
        response = engine.synthesize(request)
    assert response.ok
    assert response.escalation is not None
