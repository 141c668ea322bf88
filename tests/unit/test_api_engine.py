"""Tests of the service engine (repro.api.engine)."""

import pytest

from repro.api import (
    Engine,
    EngineClosedError,
    RequestValidationError,
    SynthesisRequest,
    SynthesisResponse,
)
from repro.invariants.synthesis import build_task
from repro.solvers.base import SolverOptions
from repro.solvers.qclp import PenaltyQCLPSolver
from repro.suite.registry import get_benchmark

QUICK_SOLVE = SolverOptions(restarts=1, max_iterations=60)


def request_for(name: str, **overrides) -> SynthesisRequest:
    benchmark = get_benchmark(name)
    fields = dict(
        program=benchmark.source,
        mode="weak",
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=benchmark.options(upsilon=1),
        request_id=name,
    )
    fields.update(overrides)
    return SynthesisRequest(**fields)


@pytest.fixture(scope="module")
def engine():
    with Engine(solver_options=QUICK_SOLVE) as shared:
        yield shared


# -- synthesize --------------------------------------------------------------------


def test_synthesize_returns_ok_response(engine):
    response = engine.synthesize(request_for("sum"))
    assert response.ok and response.status == "ok"
    assert response.result is not None and response.result.success
    assert response.invariants and response.assignment
    assert response.system_size == response.result.system_size
    assert response.timings["total_seconds"] > 0
    # Invariants are rendered both pretty and machine-readable.
    entry = response.invariants[0]["assertions"][0]
    assert {"function", "index", "kind", "text", "atoms"} <= set(entry)


def test_synthesize_matches_direct_solver_run(engine):
    benchmark = get_benchmark("freire1")
    response = engine.synthesize(request_for("freire1"))
    task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), benchmark.options(upsilon=1))
    direct = PenaltyQCLPSolver(QUICK_SOLVE).solve(task.system)
    assert response.assignment == dict(direct.assignment)


def test_identical_requests_share_reduction_and_solve(engine):
    first = engine.synthesize(request_for("cohendiv"))
    second = engine.synthesize(request_for("cohendiv"))
    assert second.from_cache and second.shared_solve
    assert not first.shared_solve
    assert first == second  # fingerprint equality ignores cache flags


def test_strong_mode_returns_representatives(engine):
    from repro.solvers.strong import RepresentativeEnumerator

    benchmark = get_benchmark("freire1")
    request = SynthesisRequest(
        program=benchmark.source,
        mode="strong",
        precondition=benchmark.precondition,
        options=benchmark.options(upsilon=1, with_witness=False),
    )
    enumerator = RepresentativeEnumerator(attempts=3, options=QUICK_SOLVE)
    response = engine.synthesize(request, enumerator=enumerator)
    assert response.ok
    assert "representatives" in response.solver_status


def test_reduce_only_requests_report_structure(engine):
    response = engine.synthesize(request_for("sum", reduce_only=True))
    assert response.status == "reduced"
    assert response.result is None and response.task is not None
    assert response.system_size == response.task.system.size


def test_error_requests_never_raise(engine):
    response = engine.synthesize(request_for("sum", program="this is not a program"))
    assert not response.ok and response.status == "error"
    assert response.error is not None and response.error.type == "ParseError"
    assert "Traceback" in response.error.traceback


# -- submit / map ------------------------------------------------------------------


def test_submit_returns_completed_handle_on_sequential_engine(engine):
    handle = engine.submit(request_for("sum"))
    assert handle.done()
    assert handle.result().status == "ok"
    assert handle.submission_id >= 0


def test_map_streams_with_submission_ids_and_isolates_failures(engine):
    requests = [
        request_for("sum"),
        request_for("sum", program="not a program at all", request_id="broken"),
        request_for("freire1"),
    ]
    responses = list(engine.map(requests))
    assert len(responses) == 3
    by_id = {response.submission_id: response for response in responses}
    assert len(by_id) == 3  # every response has a distinct submission id
    statuses = [response.status for response in responses]
    assert statuses.count("error") == 1
    assert all(isinstance(response, SynthesisResponse) for response in responses)


def test_map_out_of_order_streaming_with_workers():
    # A slow first request must not block the fast second one from arriving first.
    slow = request_for("sum", request_id="slow")
    fast = request_for("sum", program="broken on purpose", request_id="fast")
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
        responses = list(engine.map([slow, fast]))
        assert {response.request_id for response in responses} == {"slow", "fast"}
        # Out-of-order mode yields the parse failure (milliseconds) before the solve.
        assert responses[0].request_id == "fast"
        # Ordered mode restores submission order.
        ordered = list(engine.map([slow, fast], ordered=True))
        assert [response.request_id for response in ordered] == ["slow", "fast"]


def test_threaded_engine_matches_sequential():
    requests = [request_for("freire1"), request_for("cohendiv")]
    with Engine(solver_options=QUICK_SOLVE) as sequential:
        baseline = [sequential.synthesize(request) for request in requests]
    with Engine(workers=2, solver_options=QUICK_SOLVE) as threaded:
        pooled = sorted(threaded.map(requests), key=lambda response: response.submission_id)
    assert baseline == pooled


# -- deadlines and options ---------------------------------------------------------


def test_deadline_tightens_solver_time_limit():
    engine = Engine(solver_options=SolverOptions(time_limit=60.0))
    effective = engine._effective_solver_options(request_for("sum", deadline=5.0))
    assert effective.time_limit == 5.0
    # A looser deadline never relaxes an existing limit.
    effective = engine._effective_solver_options(request_for("sum", deadline=600.0))
    assert effective.time_limit == 60.0
    # With no engine default, the deadline alone becomes the limit.
    bare = Engine()
    effective = bare._effective_solver_options(request_for("sum", deadline=2.5))
    assert effective.time_limit == 2.5


@pytest.mark.parametrize("explicit_solver", [False, True])
def test_solve_budget_is_what_the_reduction_left_of_the_deadline(monkeypatch, explicit_solver):
    # A request with deadline D whose reduction took R must give Step 4 at
    # most D - R, not the whole deadline again.
    import time

    import repro.api.engine as engine_module

    deadline, delay = 2.0, 0.4
    limits = []

    class Recording(PenaltyQCLPSolver):
        def solve(self, system):
            limits.append(self.options.time_limit)
            return super().solve(system)

    def recording_make_solver(strategy, options=None, **kwargs):
        return Recording(options)

    with Engine(solver_options=QUICK_SOLVE) as fresh:
        build = fresh.cache.get_or_build_with_report

        def slow_build(*args, **kwargs):
            time.sleep(delay)
            return build(*args, **kwargs)

        monkeypatch.setattr(fresh.cache, "get_or_build_with_report", slow_build)
        monkeypatch.setattr(engine_module, "make_solver", recording_make_solver)
        solver = Recording(SolverOptions(restarts=1, max_iterations=60, time_limit=None))
        response = fresh.synthesize(
            request_for("sum", deadline=deadline), solver=solver if explicit_solver else None
        )
    reduction = response.timings["reduction_seconds"]
    assert reduction >= delay
    assert len(limits) == 1
    assert limits[0] <= deadline - reduction


def test_request_solver_options_override_engine_default(engine):
    request = request_for("sum", solver_options=SolverOptions(restarts=2, max_iterations=40))
    assert engine._effective_solver_options(request).restarts == 2


def test_deadline_bounds_an_explicit_solver_without_mutating_it():
    # "sum" normally needs several seconds at this budget; a tiny deadline
    # must cut the explicit solver short even though its own time_limit is None.
    solver = PenaltyQCLPSolver(SolverOptions(restarts=1, max_iterations=4000, time_limit=None))
    with Engine() as engine:
        response = engine.synthesize(request_for("sum", deadline=0.25), solver=solver)
    assert response.timings["solve_seconds"] < 2.0
    # The caller's solver instance was not mutated.
    assert solver.options.time_limit is None


def test_solve_dedup_table_is_bounded():
    with Engine(solver_options=QUICK_SOLVE, max_cached_solves=1) as engine:
        engine.synthesize(request_for("freire1"))
        engine.synthesize(request_for("cohendiv"))  # evicts the freire1 entry
        third = engine.synthesize(request_for("freire1"))
        assert not third.shared_solve  # re-solved after eviction
        assert engine.stats()["solves_cached"] == 1.0


def test_task_cache_is_boundable():
    from repro.pipeline.cache import TaskCache

    with Engine(cache=TaskCache(max_entries=1), solver_options=QUICK_SOLVE) as engine:
        engine.synthesize(request_for("freire1", reduce_only=True))
        engine.synthesize(request_for("cohendiv", reduce_only=True))
        assert len(engine.cache) == 1
        again = engine.synthesize(request_for("freire1", reduce_only=True))
        assert not again.from_cache  # rebuilt after eviction


# -- lifecycle ---------------------------------------------------------------------


def test_closed_engine_rejects_submissions():
    engine = Engine()
    engine.close()
    with pytest.raises(EngineClosedError):
        engine.submit(request_for("sum"))


def test_submit_rejects_non_requests(engine):
    with pytest.raises(RequestValidationError):
        engine.submit({"program": "sum(n) { return n }"})


def test_stats_expose_cache_counters(engine):
    stats = engine.stats()
    assert stats["submissions"] > 0
    assert "entries" in stats and "solves_cached" in stats


#: The counters ``Engine().stats()`` serves (``/v1/stats`` exposes them to
#: operators): an engine without a store or a schedule corpus.
EXPECTED_ENGINE_STATS = [
    "entries", "hits", "misses", "build_seconds",
    *(
        f"stage_{stage}_{counter}"
        for stage in ("frontend", "preconditions", "templates", "pairs", "translation")
        for counter in ("entries", "hits", "misses", "build_seconds")
    ),
    "stage_hits", "stage_misses", "stage_build_seconds",
    "solves_cached", "submissions",
    "translation_compile_seconds", "translation_fanout_seconds", "translation_assemble_seconds",
    "verify_requested", "verify_passed", "verify_failed",
    "repair_rounds", "repair_successes", "certificates_issued",
    "schedule_predictions", "schedule_cold_starts",
    "schedule_strategy_hits", "schedule_strategy_misses",
    "schedule_degree_hits", "schedule_degree_misses",
    "schedule_rows_recorded", "schedule_record_failures",
    "solver_residual_evaluations", "solver_jacobian_evaluations", "solver_batch_width_max",
    "store_response_hits", "store_response_misses", "store_response_writes",
    "store_solve_hits", "store_solve_writes", "store_certificates_stored",
    "process_jobs", "process_jobs_shared", "process_jobs_failed", "process_inflight",
]


def test_stats_key_set_is_pinned():
    with Engine() as fresh:
        stats = fresh.stats()
    assert sorted(stats) == sorted(EXPECTED_ENGINE_STATS)
    assert all(isinstance(value, float) and value == 0.0 for value in stats.values())


def test_stats_accumulate_solver_kernel_counters():
    with Engine(solver_options=QUICK_SOLVE) as engine:
        engine.synthesize(request_for("sum"))
        stats = engine.stats()
    assert stats["solver_residual_evaluations"] > 0
    assert stats["solver_jacobian_evaluations"] > 0
    assert stats["solver_batch_width_max"] >= 1
    # A running maximum, not a sum: a second, identical-width solve keeps it.
    with Engine(solver_options=QUICK_SOLVE) as engine:
        engine.synthesize(request_for("sum"))
        engine.synthesize(request_for("sum", solver_options=SolverOptions(restarts=1, max_iterations=61)))
        again = engine.stats()
    assert again["solver_batch_width_max"] == stats["solver_batch_width_max"]
    assert again["solver_residual_evaluations"] > stats["solver_residual_evaluations"]


# -- JSON round-trip of the whole loop ---------------------------------------------


@pytest.mark.parametrize("name", ["freire1", "cohendiv"])
def test_request_json_round_trip_resynthesizes_to_equal_response(name):
    """Acceptance: serialise → deserialise → re-synthesize gives an equal response."""
    request = request_for(name, solver_options=SolverOptions(restarts=1, max_iterations=60))
    with Engine() as first_engine:
        original = first_engine.synthesize(request)
    revived = SynthesisRequest.from_json(request.to_json())
    with Engine() as second_engine:
        again = second_engine.synthesize(revived)
    assert again == original
    # And the response envelope itself survives JSON.
    assert SynthesisResponse.from_json(original.to_json()) == original


def test_empty_assignment_survives_json_round_trip():
    response = SynthesisResponse(mode="weak", status="ok", assignment={})
    revived = SynthesisResponse.from_json(response.to_json())
    assert revived.assignment == {} and revived == response


def test_equal_responses_hash_equal():
    first = SynthesisResponse(mode="weak", status="ok", assignment={"x": 1.0})
    second = SynthesisResponse(mode="weak", status="ok", assignment={"x": 1.0})
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1


def test_response_json_carries_structured_error(engine):
    response = engine.synthesize(request_for("sum", program="nope nope"))
    revived = SynthesisResponse.from_json(response.to_json())
    assert revived.status == "error"
    assert revived.error.type == response.error.type
    assert revived == response
