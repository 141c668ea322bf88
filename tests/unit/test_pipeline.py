"""Tests of the batch synthesis pipeline (repro.pipeline)."""

import pytest

from repro.invariants.synthesis import SynthesisOptions, weak_inv_synth
from repro.pipeline import SynthesisJob, SynthesisPipeline, TaskCache, job_from_benchmark
from repro.solvers.base import SolverOptions
from repro.solvers.qclp import PenaltyQCLPSolver
from repro.suite.registry import get_benchmark

QUICK = SynthesisOptions(upsilon=1)


def small_solver() -> PenaltyQCLPSolver:
    return PenaltyQCLPSolver(SolverOptions(restarts=1, max_iterations=60))


def sum_job() -> SynthesisJob:
    return job_from_benchmark(get_benchmark("sum"), quick=True)


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


def test_reduce_only_run_yields_tasks_without_results():
    pipeline = SynthesisPipeline(solver=small_solver())
    outcomes = pipeline.run([sum_job()], solve=False)
    assert len(outcomes) == 1
    outcome = outcomes[0]
    assert outcome.ok and outcome.result is None
    assert outcome.task is not None and outcome.task.system.size > 0


def test_sequential_pipeline_matches_weak_inv_synth():
    benchmark = get_benchmark("sum")
    pipeline = SynthesisPipeline(solver=small_solver())
    outcome = pipeline.run([job_from_benchmark(benchmark, quick=True)])[0]
    reference = weak_inv_synth(
        benchmark.source,
        benchmark.precondition,
        benchmark.objective(),
        benchmark.options(upsilon=1),
        solver=small_solver(),
    )
    assert outcome.ok
    assert outcome.result.solver_status == reference.solver_status
    assert outcome.result.assignment == reference.assignment
    if reference.invariant is not None:
        assert outcome.result.invariant.assertions == reference.invariant.assertions


def test_duplicate_jobs_share_reduction_and_solve():
    pipeline = SynthesisPipeline(solver=small_solver())
    job = sum_job()
    outcomes = pipeline.run([job, job])
    assert not outcomes[0].from_cache and outcomes[1].from_cache
    assert not outcomes[0].shared_solve and outcomes[1].shared_solve
    assert outcomes[0].result.assignment == outcomes[1].result.assignment
    assert pipeline.cache.stats()["misses"] == 1.0


def test_bad_job_does_not_poison_the_batch():
    broken = SynthesisJob(name="broken", source="this is not a program", options=QUICK)
    pipeline = SynthesisPipeline(solver=small_solver())
    outcomes = pipeline.run([broken, sum_job()])
    assert not outcomes[0].ok and outcomes[0].result is None
    assert "Traceback" in outcomes[0].error
    assert outcomes[1].ok and outcomes[1].result is not None


def test_pipeline_rejects_negative_workers():
    with pytest.raises(ValueError):
        SynthesisPipeline(workers=-1)


def test_pipeline_context_manager_closes_engine_pools():
    with SynthesisPipeline(solver=small_solver(), workers=2) as pipeline:
        outcomes = pipeline.run([sum_job()])
        assert outcomes[0].ok
    assert pipeline.engine.closed


def test_pipeline_releases_pools_after_each_run_but_stays_usable():
    pipeline = SynthesisPipeline(solver=small_solver(), workers=2)
    first = pipeline.run([sum_job()])
    # The batch scoped its worker pools: nothing is left running afterwards.
    assert pipeline.engine._threads is None and pipeline.engine._jobs is None
    # The pipeline (and its task cache) remain usable for the next batch.
    second = pipeline.run([sum_job()])
    assert first[0].ok and second[0].ok
    assert second[0].from_cache
    pipeline.close()


def test_process_pool_matches_sequential():
    jobs = [sum_job(), job_from_benchmark(get_benchmark("freire1"), quick=True)]
    sequential = SynthesisPipeline(solver=small_solver(), workers=0).run(jobs)
    pooled = SynthesisPipeline(solver=small_solver(), workers=2).run(jobs)
    for left, right in zip(sequential, pooled):
        assert left.ok and right.ok
        assert left.result.solver_status == right.result.solver_status
        assert left.result.assignment == right.result.assignment


def test_stream_yields_in_submission_order():
    jobs = [job_from_benchmark(get_benchmark(name), quick=True) for name in ("sum", "freire1")]
    pipeline = SynthesisPipeline(solver=small_solver())
    names = [outcome.job.name for outcome in pipeline.stream(jobs)]
    assert names == ["sum", "freire1"]


# -- strategy threading -----------------------------------------------------------------


def test_jobs_differing_only_in_strategy_share_reduction_not_solve():
    qclp = job_from_benchmark(get_benchmark("sum"), quick=True, strategy="qclp")
    gauss = job_from_benchmark(get_benchmark("sum"), quick=True, strategy="gauss-newton")
    assert qclp.reduction_key() == gauss.reduction_key()
    assert qclp.solve_key() != gauss.solve_key()
    pipeline = SynthesisPipeline(solver_options=SolverOptions(restarts=1, max_iterations=60))
    outcomes = pipeline.run([qclp, gauss])
    assert pipeline.cache.stats()["misses"] == 1.0  # one shared reduction
    assert outcomes[1].from_cache and not outcomes[1].shared_solve


def test_pipeline_resolves_portfolio_solver_from_options():
    job = job_from_benchmark(get_benchmark("freire1"), quick=True, strategy="portfolio")
    pipeline = SynthesisPipeline(solver_options=SolverOptions(restarts=1, max_iterations=80))
    outcome = pipeline.run([job])[0]
    assert outcome.ok
    result = outcome.result
    assert result.strategy is not None
    assert any(key.startswith("portfolio_") for key in result.statistics)


def test_options_reject_unknown_strategy():
    with pytest.raises(Exception):
        SynthesisOptions(strategy="simplex")
    with pytest.raises(Exception):
        SynthesisOptions(strategy="portfolio", portfolio=("nope",))
