"""The batch synthesis pipeline, as a thin adapter over the service Engine.

:class:`SynthesisPipeline` predates the typed :mod:`repro.api` surface; it is
kept as the job-oriented batch view over the same execution core:

1. **Reduce** — every job's Step 1-3 reduction is built through the engine's
   :class:`~repro.pipeline.cache.TaskCache`, so jobs sharing a reduction are
   translated exactly once.
2. **Solve** — jobs become :class:`~repro.api.request.SynthesisRequest`
   values and run on a private :class:`~repro.api.engine.Engine`; with
   ``workers > 1`` up to ``workers`` jobs run at once on the engine's worker
   threads, and jobs whose reduction *and* solver coincide share a single
   solve.
3. **Stream** — per-job :class:`PipelineOutcome` values are yielded in
   submission order as soon as they are ready, each carrying the same
   :class:`~repro.invariants.result.SynthesisResult` a sequential
   :func:`~repro.invariants.synthesis.weak_inv_synth` call would have
   produced (both go through
   :func:`~repro.invariants.synthesis.result_from_solution`).

New code should prefer :class:`repro.api.Engine` directly — it adds typed
requests, JSON round-trip, out-of-order streaming and structured errors.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.invariants.result import SynthesisResult
from repro.invariants.synthesis import SynthesisTask
from repro.pipeline.cache import TaskCache
from repro.pipeline.jobs import SynthesisJob
from repro.solvers.base import Solver, SolverOptions


@dataclass
class PipelineOutcome:
    """Everything the pipeline knows about one finished job.

    ``result`` is ``None`` for reduction-only runs (``solve=False``) and for
    jobs that failed; failures carry the formatted traceback in ``error`` so a
    bad job never takes the rest of the batch down.
    """

    job: SynthesisJob
    task: SynthesisTask | None
    result: SynthesisResult | None
    reduction_seconds: float
    solve_seconds: float | None = None
    from_cache: bool = False
    shared_solve: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class SynthesisPipeline:
    """Run many synthesis jobs with shared reductions and concurrent solves.

    Parameters
    ----------
    solver:
        An explicit Step-4 solver applied to every job.  When ``None`` (the
        default) each job's solver is resolved from its own synthesis
        options' ``strategy``/``portfolio`` knobs — so a single batch can
        mix penalty, alternating and portfolio solves.
    workers:
        ``0`` or ``1`` runs jobs sequentially; ``n > 1`` runs up to ``n``
        jobs at once on the engine's thread executor.  Jobs stay in-process
        either way, so every outcome carries the live ``result`` and
        ``task``; cores are put to work by the engine's whole-job process
        executor (:class:`repro.api.Engine`), not here.
    cache:
        The Step 1-3 task cache; pass a shared instance to reuse reductions
        across several pipeline runs.
    solver_options:
        The :class:`~repro.solvers.base.SolverOptions` given to per-job
        solvers resolved from job options (ignored for an explicit
        ``solver``).
    """

    def __init__(
        self,
        solver: Solver | None = None,
        workers: int = 0,
        cache: TaskCache | None = None,
        solver_options: SolverOptions | None = None,
    ) -> None:
        from repro.api.engine import Engine

        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        self.solver = solver
        self.solver_options = solver_options
        self.workers = workers
        self.engine = Engine(
            workers=workers,
            cache=cache,
            solver=solver,
            solver_options=solver_options,
            # Pipeline consumers read the in-process ``result``/``task``
            # extras, which the whole-job wire path (executor="process")
            # deliberately does not carry.
            executor="thread",
        )
        self.cache = self.engine.cache

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Shut down the underlying engine's worker pools.

        A pipeline can be reused across many ``run``/``stream`` calls (its
        task cache persists); call this — or use the pipeline as a context
        manager — when done, so the pools don't outlive the batch work.
        """
        self.engine.close()

    def __enter__(self) -> "SynthesisPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- reduction --------------------------------------------------------------

    def reduce(
        self, jobs: Iterable[SynthesisJob]
    ) -> list[tuple[SynthesisJob, SynthesisTask | None, float, bool, str | None]]:
        """Run (or reuse) every job's Step 1-3 reduction.

        Returns one ``(job, task, seconds, from_cache, error)`` tuple per job,
        in submission order.  ``task`` is ``None`` when the reduction raised.
        """
        reduced = []
        for job in jobs:
            start = time.perf_counter()
            try:
                task, from_cache = self.cache.get_or_build(job)
                error = None
            except Exception:
                task, from_cache = None, False
                error = traceback.format_exc()
            reduced.append((job, task, time.perf_counter() - start, from_cache, error))
        return reduced

    # -- full runs --------------------------------------------------------------

    def run(self, jobs: Iterable[SynthesisJob], solve: bool = True) -> list[PipelineOutcome]:
        """Run the whole batch and return outcomes in submission order."""
        return list(self.stream(jobs, solve=solve))

    def stream(self, jobs: Iterable[SynthesisJob], solve: bool = True) -> Iterator[PipelineOutcome]:
        """Run the batch, yielding each job's outcome as soon as it is ready.

        Outcomes are yielded in submission order.  With ``workers > 1`` jobs
        execute concurrently while this generator yields finished results.
        """
        jobs = list(jobs)
        # A job whose request cannot even be constructed (e.g. degree="auto"
        # with solve=False) must become a per-job error outcome, not abort
        # the batch: the pipeline shares the engine's contract that one bad
        # request never takes the rest down.
        prepared: list[tuple[SynthesisJob, object | None, str | None]] = []
        for job in jobs:
            try:
                prepared.append((job, self._request_for(job, solve), None))
            except Exception:
                prepared.append((job, None, traceback.format_exc()))
        requests = [request for _, request, _ in prepared if request is not None]
        try:
            responses = iter(self.engine.map(requests, ordered=True))
            for job, request, error in prepared:
                if request is None:
                    yield PipelineOutcome(
                        job=job, task=None, result=None, reduction_seconds=0.0, error=error
                    )
                else:
                    yield self._outcome_from_response(job, next(responses), solve)
        finally:
            # Scope the worker pools to this batch (the historical contract:
            # the old implementation opened its process pool per stream call).
            # The engine and its caches stay usable for the next run.
            self.engine.shutdown_pools()

    # -- request/response adaptation ---------------------------------------------

    def _request_for(self, job: SynthesisJob, solve: bool):
        from repro.api.request import SynthesisRequest

        return SynthesisRequest(
            program=job.source,
            mode="weak",
            precondition=job.precondition,
            objective=job.objective,
            options=job.options,
            request_id=job.name,
            reduce_only=not solve,
        )

    def _outcome_from_response(self, job: SynthesisJob, response, solve: bool) -> PipelineOutcome:
        error = None
        if response.error is not None:
            error = response.error.traceback or f"{response.error.type}: {response.error.message}"
        return PipelineOutcome(
            job=job,
            task=response.task,
            result=response.result,
            reduction_seconds=response.timings.get("reduction_seconds", 0.0),
            solve_seconds=response.timings.get("solve_seconds") if solve else None,
            from_cache=response.from_cache,
            shared_solve=response.shared_solve,
            error=error,
        )
