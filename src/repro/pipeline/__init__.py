"""Batch synthesis orchestration.

This package turns the one-program-at-a-time algorithms of
:mod:`repro.invariants.synthesis` into a throughput-oriented service layer:

* :class:`~repro.pipeline.jobs.SynthesisJob` — a picklable description of one
  (program, precondition, objective, options) synthesis request.
* :class:`~repro.pipeline.cache.TaskCache` — memoises the exact Step 1-3
  reductions, so jobs sharing a reduction are translated once.
* :class:`~repro.pipeline.pipeline.SynthesisPipeline` — accepts many jobs,
  deduplicates their reductions, runs them on the engine's thread executor
  and streams per-job :class:`~repro.invariants.result.SynthesisResult`
  values back in submission order.

Since the service-API refactor the pipeline is a thin adapter over
:class:`repro.api.Engine`, which is what the benchmark runner
(``python -m repro.bench``) and the batch examples build on directly; new
code should prefer the engine (typed requests, JSON round-trip, out-of-order
streaming, structured errors).  See ``DESIGN.md`` for how both relate to the
paper's Steps 1-4.
"""

from repro.pipeline.cache import TaskCache
from repro.pipeline.jobs import SynthesisJob, job_from_benchmark
from repro.pipeline.pipeline import PipelineOutcome, SynthesisPipeline

__all__ = [
    "PipelineOutcome",
    "SynthesisJob",
    "SynthesisPipeline",
    "TaskCache",
    "job_from_benchmark",
]
