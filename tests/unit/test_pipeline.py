"""Tests of batch runs: job descriptions, the task cache and ``Engine.map``."""

import pytest

from repro.api import Engine, SynthesisRequest
from repro.invariants.synthesis import SynthesisOptions, weak_inv_synth
from repro.pipeline import SynthesisJob, TaskCache, job_from_benchmark
from repro.solvers.base import SolverOptions
from repro.solvers.qclp import PenaltyQCLPSolver
from repro.suite.registry import get_benchmark

QUICK = SynthesisOptions(upsilon=1)


def small_solver() -> PenaltyQCLPSolver:
    return PenaltyQCLPSolver(SolverOptions(restarts=1, max_iterations=60))


def sum_job() -> SynthesisJob:
    return job_from_benchmark(get_benchmark("sum"), quick=True)


def request_for(job: SynthesisJob, solve: bool = True) -> SynthesisRequest:
    return SynthesisRequest(
        program=job.source,
        mode="weak",
        precondition=job.precondition,
        objective=job.objective,
        options=job.options,
        request_id=job.name,
        reduce_only=not solve,
    )


def run(engine: Engine, jobs, solve: bool = True):
    return list(engine.map([request_for(job, solve) for job in jobs], ordered=True))


def test_job_from_benchmark_quick_preset_lowers_upsilon():
    job = job_from_benchmark(get_benchmark("sum"), quick=True)
    assert job.options.upsilon == 1
    full = job_from_benchmark(get_benchmark("sum"))
    assert full.options.upsilon == get_benchmark("sum").upsilon


def test_reduction_key_equality_and_dedup():
    assert sum_job().reduction_key() == sum_job().reduction_key()
    other = job_from_benchmark(get_benchmark("freire1"), quick=True)
    assert sum_job().reduction_key() != other.reduction_key()


def test_task_cache_builds_once():
    cache = TaskCache()
    task_a, cached_a = cache.get_or_build(sum_job())
    task_b, cached_b = cache.get_or_build(sum_job())
    assert not cached_a and cached_b
    assert task_a is task_b
    stats = cache.stats()
    assert stats["hits"] == 1.0 and stats["misses"] == 1.0 and stats["entries"] == 1.0
    cache.clear()
    assert len(cache) == 0


def test_failed_builds_leave_no_key_locks():
    """A bounded cache stays bounded when every build raises."""
    cache = TaskCache(max_entries=4)
    with Engine(cache=cache) as engine:
        jobs = [
            SynthesisJob(name=f"broken-{i}", source=f"not a program {i}", options=QUICK)
            for i in range(50)
        ]
        responses = run(engine, jobs, solve=False)
    assert all(response.status == "error" for response in responses)
    assert len(cache._key_locks) == 0
    assert len(cache.stages._key_locks) == 0


def test_reduce_only_run_yields_tasks_without_results():
    with Engine(solver=small_solver()) as engine:
        responses = run(engine, [sum_job()], solve=False)
    assert len(responses) == 1
    response = responses[0]
    assert response.ok and response.status == "reduced" and response.result is None
    assert response.task is not None and response.task.system.size > 0


def test_sequential_pipeline_matches_weak_inv_synth():
    benchmark = get_benchmark("sum")
    with Engine(solver=small_solver()) as engine:
        response = run(engine, [job_from_benchmark(benchmark, quick=True)])[0]
    reference = weak_inv_synth(
        benchmark.source,
        benchmark.precondition,
        benchmark.objective(),
        benchmark.options(upsilon=1),
        solver=small_solver(),
    )
    assert response.ok
    assert response.result.solver_status == reference.solver_status
    assert response.result.assignment == reference.assignment
    if reference.invariant is not None:
        assert response.result.invariant.assertions == reference.invariant.assertions


def test_duplicate_jobs_share_reduction_and_solve():
    with Engine(solver=small_solver()) as engine:
        job = sum_job()
        responses = run(engine, [job, job])
        assert not responses[0].from_cache and responses[1].from_cache
        assert not responses[0].shared_solve and responses[1].shared_solve
        assert responses[0].result.assignment == responses[1].result.assignment
        assert engine.cache.stats()["misses"] == 1.0


def test_bad_job_does_not_poison_the_batch():
    broken = SynthesisJob(name="broken", source="this is not a program", options=QUICK)
    with Engine(solver=small_solver()) as engine:
        responses = run(engine, [broken, sum_job()])
    assert responses[0].status == "error" and responses[0].result is None
    assert "Traceback" in responses[0].error.traceback
    assert responses[1].ok and responses[1].result is not None


def test_pipeline_rejects_negative_workers():
    with pytest.raises(ValueError):
        Engine(workers=-1)


def test_pipeline_context_manager_closes_engine_pools():
    with Engine(solver=small_solver(), workers=2, executor="thread") as engine:
        responses = run(engine, [sum_job()])
        assert responses[0].ok
    assert engine.closed
    assert engine._threads is None and engine._jobs is None


def test_process_pool_matches_sequential():
    jobs = [sum_job(), job_from_benchmark(get_benchmark("freire1"), quick=True)]
    with Engine(solver=small_solver(), workers=0) as engine:
        sequential = run(engine, jobs)
    with Engine(solver=small_solver(), workers=2, executor="thread") as engine:
        pooled = run(engine, jobs)
    for left, right in zip(sequential, pooled):
        assert left.ok and right.ok
        assert left.result.solver_status == right.result.solver_status
        assert left.result.assignment == right.result.assignment


def test_stream_yields_in_submission_order():
    jobs = [job_from_benchmark(get_benchmark(name), quick=True) for name in ("sum", "freire1")]
    with Engine(solver=small_solver(), workers=2, executor="thread") as engine:
        names = [response.request_id for response in run(engine, jobs)]
    assert names == ["sum", "freire1"]


# -- strategy threading -----------------------------------------------------------------


def test_jobs_differing_only_in_strategy_share_reduction_not_solve():
    qclp = job_from_benchmark(get_benchmark("sum"), quick=True, strategy="qclp")
    gauss = job_from_benchmark(get_benchmark("sum"), quick=True, strategy="gauss-newton")
    assert qclp.reduction_key() == gauss.reduction_key()
    assert qclp.solve_key() != gauss.solve_key()
    with Engine(solver_options=SolverOptions(restarts=1, max_iterations=60)) as engine:
        responses = run(engine, [qclp, gauss])
        assert engine.cache.stats()["misses"] == 1.0  # one shared reduction
    assert responses[1].from_cache and not responses[1].shared_solve


def test_pipeline_resolves_portfolio_solver_from_options():
    job = job_from_benchmark(get_benchmark("freire1"), quick=True, strategy="portfolio")
    with Engine(solver_options=SolverOptions(restarts=1, max_iterations=80)) as engine:
        response = run(engine, [job])[0]
    assert response.ok
    result = response.result
    assert result.strategy is not None
    assert any(key.startswith("portfolio_") for key in result.statistics)


def test_options_reject_unknown_strategy():
    with pytest.raises(Exception):
        SynthesisOptions(strategy="simplex")
    with pytest.raises(Exception):
        SynthesisOptions(strategy="portfolio", portfolio=("nope",))
