"""Batch job descriptions and the shared Step 1-3 task cache.

* :class:`~repro.pipeline.jobs.SynthesisJob` — a picklable description of one
  (program, precondition, objective, options) synthesis request.
* :class:`~repro.pipeline.cache.TaskCache` — memoises the exact Step 1-3
  reductions, so jobs sharing a reduction are translated once.

Batches run through :meth:`repro.api.Engine.map` (``ordered=True`` for
submission-order delivery), which is what the benchmark runner
(``python -m repro.bench``) and the batch examples build on.  See
``DESIGN.md`` for how the engine relates to the paper's Steps 1-4.
"""

from repro.pipeline.cache import TaskCache
from repro.pipeline.jobs import SynthesisJob, job_from_benchmark

__all__ = [
    "SynthesisJob",
    "TaskCache",
    "job_from_benchmark",
]
