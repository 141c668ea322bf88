"""The Engine: one service-grade front door for every synthesis caller.

An :class:`Engine` is a long-lived session object that owns the Step 1-3
:class:`~repro.pipeline.cache.TaskCache` and the request executor (worker
threads, or whole-job worker processes), and executes typed
:class:`~repro.api.request.SynthesisRequest` values:

* :meth:`Engine.synthesize` — one request, blocking, returns a
  :class:`~repro.api.response.SynthesisResponse` (never raises for
  per-request failures; they arrive as structured errors on the envelope);
* :meth:`Engine.submit` — non-blocking, returns a :class:`SynthesisHandle`;
* :meth:`Engine.map` — many requests, streaming completed responses **as
  they finish** (out of order, each stamped with its submission id);
* :meth:`Engine.close` / context-manager lifecycle.

Identical requests share work at two levels: reductions are deduplicated
through the task cache, and solves through a per-``(reduction, strategy,
solver options)`` result table — the second of two identical requests
reports ``shared_solve=True`` and reuses the first's solver result.

The four paper-named functions in :mod:`repro.invariants.synthesis`, the
``repro.bench`` runner and the HTTP server (:mod:`repro.server`) are all thin
layers over this class; batches go through :meth:`Engine.map`.

Parallelism has one axis: with ``workers > 1`` whole requests run
concurrently — on worker processes under ``executor="process"``, on worker
threads otherwise.  Nothing below a request (the Step-3 translation, the
Step-4 solve, the portfolio race) starts processes of its own.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.api.errors import EngineClosedError, RequestValidationError
from repro.api.request import STRONG_MODES, SynthesisRequest, precondition_to_spec
from repro.api.response import ErrorInfo, SynthesisResponse, response_from_result
from repro.api.workers import (
    FAULT_MARKER_ENV,
    ProcessWorkerPool,
    WorkerConfig,
    WorkerCrashError,
)
from repro.invariants.synthesis import (
    SynthesisTask,
    enumerate_task,
    result_from_solution,
)
from repro.pipeline.cache import TaskCache
from repro.reduction.escalate import DEADLINE_SKIPPED, EscalationAttempt, EscalationTrace
from repro.reduction.plan import objective_fingerprint
from repro.reduction.task import STAGE_NAMES
from repro.schedule import (
    RequestFeatures,
    SchedulePlan,
    Scheduler,
    SolveCorpus,
    SolveRecord,
    default_corpus_path,
    ladder_for,
    stable_fingerprints,
)
from repro.solvers.base import Solver, SolverOptions, SolverResult
from repro.solvers.portfolio import DEFAULT_PORTFOLIO, PortfolioSolver, make_solver
from repro.solvers.strong import RepresentativeEnumerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import BlobStore, EngineStore

#: Engine execution back-ends.  ``"process"`` is the multi-core production
#: path and the engine's one parallelism axis: whole synthesize jobs ship to
#: persistent worker processes over the JSON wire protocol
#: (:mod:`repro.api.workers`).  ``"thread"`` runs requests in this process,
#: which in-process batch consumers (the bench runner, batch scripts) use for
#: the rich ``result``/``task`` extras a wire envelope cannot carry.
#: ``"auto"`` picks ``"process"`` when the engine is pooled (``workers > 1``)
#: and the host has at least two cores, else ``"thread"``.
EXECUTORS = ("auto", "thread", "process")

#: Engine-level scheduler modes (requests can override via
#: ``SynthesisOptions.scheduler``; ``"inherit"`` follows the engine).
SCHEDULERS = ("off", "on", "record-only")

#: Remaining-deadline floor below which another escalation rung is pointless.
_ESCALATION_MIN_BUDGET = 0.01

#: The engine's event counters, in :meth:`Engine.stats` order.  All are sums
#: except ``solver_batch_width_max``, a running maximum.
_COUNTERS = (
    "translation_compile_seconds",
    "translation_fanout_seconds",
    "translation_assemble_seconds",
    "verify_requested",
    "verify_passed",
    "verify_failed",
    "repair_rounds",
    "repair_successes",
    "certificates_issued",
    "schedule_predictions",
    "schedule_cold_starts",
    "schedule_strategy_hits",
    "schedule_strategy_misses",
    "schedule_degree_hits",
    "schedule_degree_misses",
    "schedule_rows_recorded",
    "schedule_record_failures",
    "solver_residual_evaluations",
    "solver_jacobian_evaluations",
    "solver_batch_width_max",
    "store_response_hits",
    "store_response_misses",
    "store_response_writes",
    "store_solve_hits",
    "store_solve_writes",
    "store_certificates_stored",
    "process_jobs",
    "process_jobs_shared",
    "process_jobs_failed",
)


class SynthesisHandle:
    """A submitted request: a future-style handle onto its response.

    ``result()`` never raises for synthesis failures — those come back as an
    ``status="error"`` response — only for caller-side problems such as a
    ``timeout``.
    """

    def __init__(self, submission_id: int, request: SynthesisRequest, future: Future):
        self.submission_id = submission_id
        self.request = request
        self._future = future

    def done(self) -> bool:
        """Whether the response is ready."""
        return self._future.done()

    def result(self, timeout: float | None = None) -> SynthesisResponse:
        """Block until the response is ready and return it."""
        return self._future.result(timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done() else "pending"
        return f"SynthesisHandle(id={self.submission_id}, {state})"


class Engine:
    """A synthesis session: persistent task cache plus a request executor.

    Parameters
    ----------
    workers:
        ``0`` or ``1`` executes requests synchronously in the submitting
        thread; ``n > 1`` runs up to ``n`` requests concurrently.
    cache:
        The Step 1-3 task cache; pass a shared instance to reuse reductions
        across engines (e.g. between a service and its warm-up script).
    solver:
        An explicit Step-4 solver applied to every weak-mode request.  When
        ``None`` (the default) each request's solver is resolved from its
        options' ``strategy``/``portfolio`` knobs.
    solver_options:
        Default Step-4 solver knobs for resolved solvers; a request's own
        ``solver_options``/``deadline`` override/tighten these.
    executor:
        ``"thread"`` executes requests on the engine's worker threads — fine
        for warm traffic (cache hits, store hits) but CPU-bound cold work
        serialises on the GIL.  ``"process"`` — the production path — ships
        whole synthesize jobs (reduce, solve, verify) to a pool of
        ``workers`` persistent worker processes over the strict JSON wire
        protocol (:mod:`repro.api.workers`): each worker holds a warm
        sequential engine with its own stage caches, store/corpus writes
        happen in the workers, identical in-flight requests are deduplicated
        parent-side (the rider's envelope reports ``shared_solve=True``), and
        a worker crash mid-job becomes a structured ``status="error"``
        envelope while the pool rebuilds.  Responses carry the JSON envelope
        only (no in-process ``result``/``task`` extras), exactly as over the
        wire; requests that need live objects — escape-hatch submissions, an
        engine-level ``solver``, ``reduce_only`` — transparently fall back to
        the thread path.  ``"auto"`` (default) picks ``"process"`` when
        ``workers > 1`` and the host has at least two cores, else
        ``"thread"``.  With ``workers <= 1`` every executor resolves to
        ``"thread"``: no pool starts and requests run in the calling thread.
    max_cached_solves:
        Size bound of the solve-dedup result table (oldest entries evicted
        first), so a long-lived engine's memory stays bounded.  ``None``
        disables eviction.
    scheduler:
        The corpus-driven portfolio scheduler (:mod:`repro.schedule`).
        ``"off"`` (default) races portfolios exactly as configured;
        ``"record-only"`` appends one corpus row per completed solve without
        changing any schedule; ``"on"`` additionally predicts — the expected
        winning strategy launches first with the rest of the line-up
        staggered behind a learned grace period (never pruned), and
        ``degree="auto"`` ladders start at the predicted rung with the
        skipped lower rungs appended as downward repair.  Predictions only
        reorder work whose acceptance is gated by feasibility checks and
        (when requested) exact certificates, so a misprediction can cost
        time but never correctness.
    corpus:
        The :class:`~repro.schedule.SolveCorpus` (or its path) backing the
        scheduler; shared paths share training signal across processes and
        restarts.  ``None`` with a non-``"off"`` scheduler falls back to
        :func:`~repro.schedule.default_corpus_path`.  Passing a corpus while
        ``scheduler="off"`` arms the engine for per-request
        ``SynthesisOptions(scheduler=...)`` overrides without changing the
        engine default.
    store:
        The persistent content-addressed store (:mod:`repro.store`): an
        :class:`~repro.store.EngineStore`, a :class:`~repro.store.BlobStore`
        or a root directory path.  When set, the engine (1) re-serves whole
        response envelopes for previously completed requests straight from
        disk (``served_from_store=True``; nothing is recomputed — not even by
        this process or since the last restart), (2) persists every feasible
        Step-4 solve under its stable content hash, so requests differing
        only in e.g. their verification tier reuse the solve across
        processes, (3) files every issued certificate under its own
        fingerprint (named in ``verification["certificate_sha"]``), and
        (4) roots the schedule corpus in the same data directory, one per
        deployment.  A corrupt or half-written blob degrades to a cache
        miss, never an error.  Store-served responses carry the JSON
        envelope only — the in-process ``result``/``task`` extras are
        absent, exactly as over the wire.
    """

    def __init__(
        self,
        workers: int = 0,
        cache: TaskCache | None = None,
        solver: Solver | None = None,
        solver_options: SolverOptions | None = None,
        executor: str = "auto",
        max_cached_solves: int | None = 512,
        scheduler: str = "off",
        corpus: SolveCorpus | str | None = None,
        store: "EngineStore | BlobStore | str | None" = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; known executors: {', '.join(EXECUTORS)}")
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; known schedulers: {', '.join(SCHEDULERS)}"
            )
        self.workers = workers
        self.cache = cache if cache is not None else TaskCache()
        self.max_cached_solves = max_cached_solves
        self.solver = solver
        self.solver_options = solver_options
        self.executor = executor
        self._executor_kind = self._resolve_executor(executor, workers)
        self._threads: ThreadPoolExecutor | None = None
        self._jobs: ProcessWorkerPool | None = None
        self._inflight: dict[str, Future] = {}
        self._inflight_lock = threading.Lock()
        self._counters: dict[str, float] = dict.fromkeys(_COUNTERS, 0)
        self._counter_lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self._solves: dict[tuple, Future] = {}
        self._solve_lock = threading.Lock()
        self._submit_lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self.store: "EngineStore | None" = None
        if store is not None:
            from repro.store import open_store

            self.store = open_store(store)
        self.scheduler = scheduler
        self._corpus: SolveCorpus | None = None
        self._planner: Scheduler | None = None
        if scheduler != "off" or corpus is not None or self.store is not None:
            if corpus is None:
                # One data directory per deployment: a store-backed engine
                # roots its corpus next to the blob namespaces.
                corpus = self.store.corpus_path if self.store is not None else default_corpus_path()
            self._corpus = corpus if isinstance(corpus, SolveCorpus) else SolveCorpus(corpus)
            self._planner = Scheduler(self._corpus)
        if self._executor_kind == "process":
            # Fork the job workers now, from the constructing thread — before
            # the engine's own worker threads exist — so the pool is warm for
            # the first request.  A construction failure tears the partial
            # pool down: a half-built engine must leave no child processes.
            pool = ProcessWorkerPool(self.workers, self._worker_config())
            try:
                pool.warm()
            except BaseException:
                pool.close(wait=False)
                raise
            self._jobs = pool

    @staticmethod
    def _resolve_executor(executor: str, workers: int, cpus: int | None = None) -> str:
        """The effective executor of one engine (the ``"auto"`` decision table).

        ========== ============ =========== =================
        executor   workers      host cores  resolved
        ========== ============ =========== =================
        any        <= 1         any         thread
        auto       > 1          1           thread
        auto       > 1          >= 2        process
        explicit   > 1          any         itself
        ========== ============ =========== =================
        """
        if workers <= 1:
            return "thread"
        if executor != "auto":
            return executor
        cpus = cpus if cpus is not None else (os.cpu_count() or 1)
        return "process" if cpus >= 2 else "thread"

    @property
    def executor_kind(self) -> str:
        """The resolved executor back-end this engine runs requests on."""
        return self._executor_kind

    def _worker_config(self) -> WorkerConfig:
        """The JSON-able config the job workers build their engines from."""
        corpus_path = None
        if self.store is None and self._corpus is not None:
            corpus_path = self._corpus.path
        return WorkerConfig(
            store_root=self.store.root if self.store is not None else None,
            corpus_path=corpus_path,
            scheduler=self.scheduler,
            solver_options=(
                dataclasses.asdict(self.solver_options)
                if self.solver_options is not None
                else None
            ),
            max_cached_solves=self.max_cached_solves,
            fault_marker=os.environ.get(FAULT_MARKER_ENV),
        )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, wait_for_pending: bool = True) -> None:
        """Shut the worker pools down; further submissions raise :class:`EngineClosedError`."""
        with self._pool_lock:
            self._closed = True
            threads, self._threads = self._threads, None
            jobs, self._jobs = self._jobs, None
        if threads is not None:
            threads.shutdown(wait=wait_for_pending)
        if jobs is not None:
            jobs.close(wait=wait_for_pending)

    def stats(self) -> dict[str, float]:
        """Cache and dedup counters (for service dashboards).

        Includes the per-stage hit/miss counters of the staged reduction
        (``stage_frontend_hits``, ``stage_translation_misses``, ...) next to
        the historical whole-task counters.
        """
        stats = self.cache.stats()
        with self._solve_lock:
            stats["solves_cached"] = float(len(self._solves))
        stats["submissions"] = float(self._next_id)
        with self._counter_lock:
            stats.update({key: float(value) for key, value in self._counters.items()})
        if self._corpus is not None:
            stats["schedule_corpus_rows"] = float(len(self._corpus))
        with self._inflight_lock:
            stats["process_inflight"] = float(len(self._inflight))
        if self.store is not None:
            stats.update(self.store.stats())
        return stats

    def _bump(self, key: str, amount: float = 1) -> None:
        with self._counter_lock:
            self._counters[key] += amount

    def _record_translation(self, report) -> None:
        """Accumulate a reduction's translation sub-phase split into :meth:`stats`.

        Only reductions whose translation stage actually ran carry the split
        (``ReductionReport.extra_timings``); cached stages contribute nothing.
        """
        extra = dict(report.extra_timings)
        if not extra:
            return
        for phase in ("compile", "fanout", "assemble"):
            self._bump(
                f"translation_{phase}_seconds", extra.get(f"stage_translation_{phase}_seconds", 0.0)
            )

    def _record_verification(self, outcome) -> None:
        self._bump("verify_requested")
        self._bump("verify_passed" if outcome.verified else "verify_failed")
        self._bump("repair_rounds", outcome.repair_rounds)
        if outcome.repaired:
            self._bump("repair_successes")
        if outcome.certificate is not None:
            self._bump("certificates_issued")

    # -- scheduling --------------------------------------------------------------

    def _schedule_mode(self, request: SynthesisRequest) -> str:
        """The effective scheduler mode of one request (request over engine)."""
        if self._corpus is None or self._planner is None:
            return "off"
        mode = request.options.scheduler
        return self.scheduler if mode == "inherit" else mode

    def _request_features(self, request: SynthesisRequest) -> RequestFeatures:
        """The corpus feature vector of a request (pre-reduction fields only).

        The stable fingerprints hash canonical *textual* renderings of the
        program, precondition and objective — never ``id()``-based in-memory
        keys — so they match across processes and engine restarts.
        """
        options = request.options
        precondition_text = json.dumps(
            precondition_to_spec(request.precondition), sort_keys=True, default=str
        )
        # Scheme knobs: the reduction fingerprint minus its leading degree —
        # the degree travels as a numeric feature, not inside reduction_sha,
        # so auto-ladder rungs and fixed-degree requests match each other.
        scheme_knobs = options.reduction_fingerprint()[1:]
        program_sha, reduction_sha = stable_fingerprints(
            request.program,
            precondition_text,
            scheme_knobs,
            str(objective_fingerprint(request.objective)),
        )
        return RequestFeatures(
            program_sha=program_sha,
            reduction_sha=reduction_sha,
            program_chars=float(len(request.program)),
            program_lines=float(request.program.count("\n") + 1),
            degree=-1.0 if options.is_auto_degree else float(options.degree),
            conjuncts=float(options.conjuncts),
            upsilon=float(options.upsilon),
            scheme=0.0 if options.translation == "putinar" else 1.0,
            bounded=float(options.bounded),
            strict=float(options.with_witness),
            encode_sos=float(options.encode_sos),
        )

    def _enriched_features(self, request: SynthesisRequest, task) -> RequestFeatures:
        """Request features plus the post-reduction size dimensions."""
        features = self._request_features(request)
        if task is None:
            return features
        return features.with_reduction(
            task.statistics.get("constraint_pairs", 0.0),
            task.system.counts().get("template_variables", 0),
            task.system.size,
        )

    def _plan_solve(self, request: SynthesisRequest, job, task) -> SchedulePlan | None:
        """Predict the portfolio schedule of one fixed-degree solve.

        Prediction failures degrade to ``None`` (the unscheduled race) — the
        scheduler is advisory and must never fail a request.
        """
        try:
            features = self._enriched_features(request, task)
            plan = self._planner.plan(
                features, line_up=job.options.portfolio or DEFAULT_PORTFOLIO
            )
        except Exception:  # pragma: no cover - defensive: corpus corruption
            return None
        self._bump("schedule_predictions" if plan.predicted else "schedule_cold_starts")
        return plan

    def _maybe_record(
        self,
        request: SynthesisRequest,
        response: SynthesisResponse,
        *,
        degree: int,
        final_degree: int | None = None,
        degrees_tried: tuple[int, ...] = (),
        shared: bool = False,
        enriched: bool = True,
    ) -> None:
        """Append one corpus row for a completed weak solve (post-verification).

        Rows are written *after* verification so they reflect the
        certificate-gated outcome; shared (deduplicated) solves are skipped —
        the owning request already recorded the work.  Recording is advisory:
        any failure only bumps ``schedule_record_failures``.

        ``enriched=False`` records the pre-reduction feature vector (pair and
        system counts left at 0).  Escalation-level rows use it so they live
        in the same feature space as the escalation-level *queries*, which
        run before any rung is reduced — a warm repeat of the same auto
        request is then an exact feature match and its recorded minimal
        degree dominates the vote.
        """
        mode = self._schedule_mode(request)
        if mode == "off" or shared or self._corpus is None:
            return
        if request.mode in STRONG_MODES or request.reduce_only:
            return
        if response.status not in ("ok", "no_invariant"):
            return
        ok = False
        try:
            if enriched:
                features = self._enriched_features(request, response.task)
            else:
                features = self._request_features(request)
            statistics = response.statistics or {}
            strategy_seconds = {
                key[len("portfolio_") : -len("_seconds")]: float(value)
                for key, value in statistics.items()
                if key.startswith("portfolio_") and key.endswith("_seconds")
            }
            solve_seconds = float(response.timings.get("solve_seconds", 0.0))
            strategy = response.strategy if response.status == "ok" else None
            if not strategy_seconds and strategy:
                strategy_seconds = {strategy: solve_seconds}
            verification = response.verification
            record = SolveRecord(
                features=features,
                strategy=strategy,
                solver_status=response.solver_status or "",
                feasible=response.status == "ok",
                solve_seconds=solve_seconds,
                strategy_seconds=strategy_seconds,
                degree=degree,
                final_degree=final_degree,
                degrees_tried=degrees_tried,
                repair_rounds=0 if verification is None else int(verification.get("repair_rounds", 0)),
                verified=None if verification is None else bool(verification.get("verified")),
            )
            ok = self._corpus.append(record)
        except Exception:  # pragma: no cover - defensive: recording never fails a request
            ok = False
        self._bump("schedule_rows_recorded" if ok else "schedule_record_failures")

    # -- submission --------------------------------------------------------------

    def synthesize(
        self,
        request: SynthesisRequest,
        *,
        solver: Solver | None = None,
        task: SynthesisTask | None = None,
        enumerator: RepresentativeEnumerator | None = None,
        deadline_epoch: float | None = None,
    ) -> SynthesisResponse:
        """Execute one request and return its response (blocking).

        The keyword-only ``solver``/``task``/``enumerator`` escape hatches
        carry live in-process objects (a pre-built Step 1-3 reduction, a
        hand-configured solver); they are not part of the wire format and
        bypass the solve-dedup table.  ``deadline_epoch`` anchors the
        request's relative ``deadline`` to an absolute wall-clock instant
        (``time.time()`` scale) so a deadline keeps ticking across queueing
        and process hops; callers normally leave it ``None``.
        """
        return self.submit(
            request,
            solver=solver,
            task=task,
            enumerator=enumerator,
            deadline_epoch=deadline_epoch,
        ).result()

    def submit(
        self,
        request: SynthesisRequest,
        *,
        solver: Solver | None = None,
        task: SynthesisTask | None = None,
        enumerator: RepresentativeEnumerator | None = None,
        deadline_epoch: float | None = None,
    ) -> SynthesisHandle:
        """Schedule one request; returns a handle whose ``result()`` is the response."""
        if self._closed:
            raise EngineClosedError("engine is closed")
        if not isinstance(request, SynthesisRequest):
            raise RequestValidationError.single("$", "expected a SynthesisRequest")
        if deadline_epoch is None and request.deadline is not None:
            # Anchor the relative deadline now, at admission: queue time and
            # the process hop both count against the request's budget.
            deadline_epoch = time.time() + float(request.deadline)
        with self._submit_lock:
            submission_id = self._next_id
            self._next_id += 1
        if self.workers > 1:
            pool = self._thread_pool()
            future = pool.submit(
                self._execute,
                request,
                submission_id,
                solver,
                task,
                enumerator,
                deadline_epoch=deadline_epoch,
            )
        else:
            future: Future = Future()
            future.set_result(
                self._execute(
                    request, submission_id, solver, task, enumerator, deadline_epoch=deadline_epoch
                )
            )
        return SynthesisHandle(submission_id, request, future)

    def map(
        self, requests: Iterable[SynthesisRequest], ordered: bool = False
    ) -> Iterator[SynthesisResponse]:
        """Stream responses for many requests as they finish.

        By default completed responses are yielded **out of submission
        order** — whichever request finishes first arrives first, stamped
        with its ``submission_id`` so callers can match them back.  Pass
        ``ordered=True`` for submission-order delivery (still streaming: each
        response is yielded as soon as it and all its predecessors are done).
        A failing request yields an ``status="error"`` response; it never
        raises out of the iterator.
        """
        if self.workers <= 1:
            # Sequential engines execute on submit; stream lazily, one by one.
            for request in requests:
                yield self.submit(request).result()
            return
        handles = [self.submit(request) for request in requests]
        if ordered:
            for handle in handles:
                yield handle.result()
            return
        pending = {handle._future: handle for handle in handles}
        while pending:
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for future in done:
                handle = pending.pop(future)
                yield handle.result()

    # -- execution ---------------------------------------------------------------

    def _thread_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise EngineClosedError("engine is closed")
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-engine"
                )
            return self._threads

    def _effective_solver_options(
        self, request: SynthesisRequest, budget: float | None = None
    ) -> SolverOptions | None:
        """Request solver options over engine defaults, tightened by the deadline.

        ``budget`` is what remains of the request deadline when Step 4
        starts (the reduction has already spent the rest); without it the
        whole deadline applies, which is the form the solve-dedup and store
        keys use, so identical requests keep sharing one solve.
        """
        options = request.solver_options if request.solver_options is not None else self.solver_options
        if request.deadline is not None:
            budget = float(request.deadline) if budget is None else budget
            options = options if options is not None else SolverOptions()
            limit = budget if options.time_limit is None else min(options.time_limit, budget)
            options = replace(options, time_limit=limit)
        return options

    @staticmethod
    def _remaining_budget(request: SynthesisRequest, started: float) -> float | None:
        """What is left of ``request.deadline`` since ``started`` (``perf_counter`` scale)."""
        if request.deadline is None:
            return None
        return max(0.0, float(request.deadline) - (time.perf_counter() - started))

    def _execute(
        self,
        request: SynthesisRequest,
        submission_id: int,
        solver: Solver | None,
        task: SynthesisTask | None,
        enumerator: RepresentativeEnumerator | None,
        deadline_epoch: float | None = None,
    ) -> SynthesisResponse:
        # A request is wire-clean when everything it needs round-trips the
        # JSON codec: no live solver/task/enumerator escape hatches, no
        # engine-level solver object, and the caller does not want the
        # in-process ``task`` back (``reduce_only``).  Only wire-clean
        # requests can hit the store or ship to a worker process.
        wire_clean = (
            solver is None
            and task is None
            and enumerator is None
            and self.solver is None
            and not request.reduce_only
        )
        # The persistent store short-circuits the whole request: an identical
        # request completed by any process against this root — including a
        # previous life of this one — is re-served from disk.  Store keys are
        # always computed from the *original* request (never a
        # deadline-clamped derivation), so warm hits are stable across queue
        # delays and restarts.
        store_key: str | None = None
        if self.store is not None and wire_clean:
            lookup_start = time.perf_counter()
            store_key = self.store.responses.key_for(request, repr(self.solver_options))
            served = self.store.responses.load(store_key)
            if served is not None:
                self._bump("store_response_hits")
                return self._serve_from_store(
                    served, request, submission_id, time.perf_counter() - lookup_start
                )
            self._bump("store_response_misses")
        if self._executor_kind == "process" and wire_clean:
            # The production path: the whole job — reduce, solve, verify,
            # store/corpus writes — runs in a worker process.  The parent
            # does not write the store (the worker owns the write); it only
            # deduplicates identical in-flight requests.
            return self._execute_process_job(request, submission_id, deadline_epoch)
        exec_request = self._clamp_deadline(request, deadline_epoch)
        if exec_request.options.is_auto_degree and task is None:
            response = self._execute_escalation(exec_request, submission_id, solver, enumerator)
        else:
            response = self._execute_fixed(exec_request, submission_id, solver, task, enumerator)
        if store_key is not None and response.exception is None:
            if self.store.responses.store(store_key, response):
                self._bump("store_response_writes")
        return response

    @staticmethod
    def _clamp_deadline(
        request: SynthesisRequest, deadline_epoch: float | None
    ) -> SynthesisRequest:
        """Re-anchor a request's relative deadline to its admission instant.

        Only ever *tightens*: when less of the budget remains than the
        request's own ``deadline`` (queue time, a process hop), execution
        runs on a derived request carrying the remaining budget.  The
        original request — and therefore every content-addressed key — is
        never mutated.
        """
        if deadline_epoch is None or request.deadline is None:
            return request
        remaining = deadline_epoch - time.time()
        if remaining >= float(request.deadline):
            return request
        return dataclasses.replace(request, deadline=max(remaining, 0.001))

    # -- the process-backed job path ---------------------------------------------

    def _job_pool(self) -> ProcessWorkerPool:
        # Built (and warmed) by the constructor; only ``close`` clears it.
        with self._pool_lock:
            if self._jobs is None:
                raise EngineClosedError("engine is closed")
            return self._jobs

    def _process_dedup_key(self, request: SynthesisRequest) -> str:
        """In-flight dedup key: the same content hash the response store uses.

        ``request_id`` is excluded, so two clients racing the same program
        share one worker job; the engine's default solver options
        participate because they shape the solve.  Works with or without a
        persistent store.
        """
        from repro.store.views import ResponseStore

        return ResponseStore.key_for(request, repr(self.solver_options))

    def _execute_process_job(
        self, request: SynthesisRequest, submission_id: int, deadline_epoch: float | None
    ) -> SynthesisResponse:
        """Ship one synthesize job to a worker process (or ride a twin's).

        The first request for a given content key *owns* the worker job;
        identical requests arriving while it is in flight become *riders* on
        the owner's future and re-parse their own copy of the owner's wire
        envelope (``shared_solve=True``, like a dedup hit).  A worker crash
        mid-job becomes a structured ``status="error"`` envelope for the
        owner and every rider — never an exception out of the engine.
        """
        key = self._process_dedup_key(request)
        with self._inflight_lock:
            future = self._inflight.get(key)
            owner = future is None
            if owner:
                future = Future()
                self._inflight[key] = future
        if not owner:
            self._bump("process_jobs_shared")
            try:
                wire = future.result()
            except WorkerCrashError as exc:
                return self._crash_envelope(request, submission_id, exc)
            return self._envelope_from_wire(wire, request, submission_id, shared=True)
        self._bump("process_jobs")
        start = time.perf_counter()
        try:
            wire = self._job_pool().execute(request.to_dict(), deadline_epoch)
        except WorkerCrashError as exc:
            self._bump("process_jobs_failed")
            with self._inflight_lock:
                self._inflight.pop(key, None)
            future.set_exception(exc)
            return self._crash_envelope(request, submission_id, exc)
        except BaseException as exc:
            with self._inflight_lock:
                self._inflight.pop(key, None)
            future.set_exception(exc)
            raise
        with self._inflight_lock:
            self._inflight.pop(key, None)
        future.set_result(wire)
        return self._envelope_from_wire(
            wire,
            request,
            submission_id,
            shared=False,
            wall_seconds=time.perf_counter() - start,
        )

    def _envelope_from_wire(
        self,
        wire: str,
        request: SynthesisRequest,
        submission_id: int,
        shared: bool,
        wall_seconds: float | None = None,
    ) -> SynthesisResponse:
        """Parse a worker's envelope and stamp it for this submission.

        Riders get their own parsed copy (responses are mutable), flagged
        ``from_cache``/``shared_solve`` exactly like an in-memory dedup hit.
        """
        response = SynthesisResponse.from_dict(json.loads(wire))
        response.request_id = request.request_id
        response.submission_id = submission_id
        if shared:
            response.from_cache = True
            response.shared_solve = True
        if wall_seconds is not None:
            timings = dict(response.timings)
            timings["process_wall_seconds"] = wall_seconds
            response.timings = timings
        return response

    def _crash_envelope(
        self, request: SynthesisRequest, submission_id: int, exc: WorkerCrashError
    ) -> SynthesisResponse:
        return SynthesisResponse(
            mode=request.mode,
            status="error",
            request_id=request.request_id,
            submission_id=submission_id,
            error=ErrorInfo(type="WorkerCrashed", message=str(exc)),
        )

    def _serve_from_store(
        self,
        served: SynthesisResponse,
        request: SynthesisRequest,
        submission_id: int,
        seconds: float,
    ) -> SynthesisResponse:
        """Stamp a disk-served envelope for this submission (no recompute).

        Volatile bookkeeping is rewritten to reflect what actually happened
        *now*: zero reduction/solve work, every stage effectively cached, and
        the store lookup as the total cost.  The semantic payload (status,
        invariants, assignment, certificate, ...) is the stored one.
        """
        served.request_id = request.request_id
        served.submission_id = submission_id
        served.from_cache = True
        served.shared_solve = True
        served.served_from_store = True
        served.timings = {
            "reduction_seconds": 0.0,
            "solve_seconds": 0.0,
            "stages_from_cache": float(len(STAGE_NAMES)),
            "store_seconds": seconds,
            "total_seconds": seconds,
        }
        return served

    def _execute_escalation(
        self,
        request: SynthesisRequest,
        submission_id: int,
        solver: Solver | None,
        enumerator: RepresentativeEnumerator | None,
    ) -> SynthesisResponse:
        """Adaptive degree escalation: run the d = 1..max_degree ladder.

        Each rung is an ordinary fixed-degree execution (so it shares the
        degree-independent reduction stages and the solve-dedup table with
        everything else), under whatever remains of the request deadline.
        The first rung that yields an invariant wins — its response is
        returned, stamped with the full :class:`EscalationTrace`; errors at a
        rung (e.g. an objective the small template cannot express) are
        recorded and escalation continues.
        """
        total_start = time.perf_counter()
        attempts: list[EscalationAttempt] = []
        last_response: SynthesisResponse | None = None
        last_usable: SynthesisResponse | None = None
        final_degree: int | None = None
        exhausted = False
        degrees = request.options.escalation_degrees()
        plan: SchedulePlan | None = None
        if (
            self._schedule_mode(request) == "on"
            and solver is None
            and request.mode not in STRONG_MODES
        ):
            try:
                line_up = (
                    request.options.portfolio or DEFAULT_PORTFOLIO
                    if request.options.strategy == "portfolio"
                    else (request.options.strategy,)
                )
                plan = self._planner.plan(
                    self._request_features(request),
                    line_up=line_up,
                    max_degree=request.options.max_degree,
                )
            except Exception:  # pragma: no cover - defensive: corpus corruption
                plan = None
            if plan is not None and plan.start_degree is not None and plan.start_degree > 1:
                # Start at the predicted rung; the skipped lower rungs run
                # after the upward ladder as downward repair, so prediction
                # reorders the attempts but never drops one.
                degrees = ladder_for(plan.start_degree, request.options.max_degree)
        for degree in degrees:
            remaining: float | None = None
            if request.deadline is not None:
                remaining = float(request.deadline) - (time.perf_counter() - total_start)
                if remaining <= _ESCALATION_MIN_BUDGET:
                    attempts.append(EscalationAttempt(degree=degree, status=DEADLINE_SKIPPED))
                    exhausted = True
                    break
            derived = dataclasses.replace(
                request,
                options=replace(request.options, degree=degree),
                deadline=remaining,
            )
            start = time.perf_counter()
            # Rungs never record corpus rows themselves: the ladder records
            # one request-level row below, with the full escalation trace.
            response = self._execute_fixed(derived, submission_id, solver, None, enumerator, record=False)
            seconds = time.perf_counter() - start
            attempts.append(
                EscalationAttempt(
                    degree=degree,
                    status=response.status,
                    seconds=seconds,
                    reduction_seconds=response.timings.get("reduction_seconds", 0.0),
                    solve_seconds=response.timings.get("solve_seconds", 0.0),
                    from_cache=response.from_cache,
                    error=f"{response.error.type}: {response.error.message}" if response.error else None,
                )
            )
            last_response = response
            if response.status != "error":
                last_usable = response
            # A rung only wins outright when its invariant also passed the
            # requested verification tier; an "ok"-but-unverified rung is
            # kept as a fallback while escalation tries higher degrees for a
            # certifiable one.
            if response.status == "ok" and (
                response.verification is None or response.verification.get("verified")
            ):
                final_degree = degree
                break
        trace = EscalationTrace(
            attempts=tuple(attempts), final_degree=final_degree, exhausted_deadline=exhausted
        )
        # Prefer the winning rung; otherwise the last rung that at least ran
        # the solver; otherwise the last error.
        chosen = last_usable if final_degree is None else last_response
        if chosen is None:
            chosen = last_response
        if chosen is None:  # pragma: no cover - deadline validation keeps rung 1 alive
            chosen = SynthesisResponse(
                mode=request.mode,
                status="error",
                request_id=request.request_id,
                submission_id=submission_id,
                error=ErrorInfo(type="SynthesisError", message="escalation ran no degree"),
            )
        chosen.escalation = trace.to_dict()
        # Aggregate the ladder's timings over the winning rung's own — keeping
        # its stage_* breakdown and stages_from_cache visible.
        merged = dict(chosen.timings)
        merged.update(
            {
                "reduction_seconds": sum(a.reduction_seconds for a in attempts),
                "solve_seconds": sum(a.solve_seconds for a in attempts),
                "escalation_attempts": float(len(trace.degrees_tried)),
                "total_seconds": time.perf_counter() - total_start,
            }
        )
        if plan is not None and plan.start_degree is not None:
            merged["schedule_start_degree"] = float(plan.start_degree)
            self._bump(
                "schedule_degree_hits"
                if final_degree == plan.start_degree
                else "schedule_degree_misses"
            )
        chosen.timings = merged
        if solver is None:
            self._maybe_record(
                request,
                chosen,
                degree=final_degree if final_degree is not None else (
                    trace.degrees_tried[-1] if trace.degrees_tried else 0
                ),
                final_degree=final_degree,
                degrees_tried=tuple(trace.degrees_tried),
                enriched=False,
            )
        return chosen

    def _execute_fixed(
        self,
        request: SynthesisRequest,
        submission_id: int,
        solver: Solver | None,
        task: SynthesisTask | None,
        enumerator: RepresentativeEnumerator | None,
        record: bool = True,
    ) -> SynthesisResponse:
        total_start = time.perf_counter()
        timings: dict[str, float] = {}
        built: SynthesisTask | None = None
        try:
            job = request.job()
            if task is not None:
                built, from_cache = task, False
                timings["reduction_seconds"] = 0.0
            else:
                start = time.perf_counter()
                built, from_cache, report = self.cache.get_or_build_with_report(job)
                timings["reduction_seconds"] = time.perf_counter() - start
                timings.update(report.timings())
                self._record_translation(report)

            if request.reduce_only:
                timings["total_seconds"] = time.perf_counter() - total_start
                return SynthesisResponse(
                    mode=request.mode,
                    status="reduced",
                    request_id=request.request_id,
                    submission_id=submission_id,
                    statistics=dict(built.statistics),
                    timings=timings,
                    system_size=built.system.size,
                    from_cache=from_cache,
                    task=built,
                )

            certificate = None
            verification = None
            if request.mode in STRONG_MODES:
                start = time.perf_counter()
                chosen = enumerator
                if chosen is None:
                    options = self._effective_solver_options(
                        request, self._remaining_budget(request, total_start)
                    )
                    chosen = (
                        RepresentativeEnumerator(options=options)
                        if options is not None
                        else RepresentativeEnumerator()
                    )
                result = enumerate_task(built, chosen)
                timings["solve_seconds"] = time.perf_counter() - start
                shared = False
            else:
                solve_result, solve_seconds, shared, schedule_timings = self._weak_solve(
                    request, job, built, solver, task, self._remaining_budget(request, total_start)
                )
                timings["solve_seconds"] = solve_seconds
                timings.update(schedule_timings)
                exact_assignment = None
                if request.options.verify != "none" and solve_result.feasible:
                    from repro.certify.verify import verify_solution

                    outcome = verify_solution(
                        built,
                        solve_result,
                        request.options,
                        solver_options=self._effective_solver_options(request),
                        deadline_seconds=self._remaining_budget(request, total_start),
                    )
                    self._record_verification(outcome)
                    if outcome.solve_result is not None:  # a repair round re-solved
                        solve_result = outcome.solve_result
                        shared = False
                        # Overwrite the dedup table with the repaired solve:
                        # identical future requests start from the verified
                        # solution instead of re-living the failing lift and
                        # the repair re-race.  The cached duration charges
                        # the repair race to the solve that produced the
                        # result, not just the rejected first attempt.
                        # (Verification itself is deliberately *not*
                        # deduplicated: the solve-level table covers the
                        # expensive stage, and concurrent identical verifies
                        # are deterministic duplicates, not divergences.)
                        if solver is None and task is None:
                            self._replace_cached_solve(
                                request, job, solve_result, solve_seconds + outcome.seconds
                            )
                    if outcome.certificate is not None:
                        certificate = outcome.certificate.to_dict()
                        exact_assignment = outcome.exact_assignment
                    verification = outcome.to_dict()
                    if certificate is not None and self.store is not None:
                        # File the exact witness under its own fingerprint so
                        # auditors can re-load and re-check it by name.
                        cert_sha, wrote = self.store.certificates.put(certificate)
                        verification["certificate_sha"] = cert_sha
                        if wrote:
                            self._bump("store_certificates_stored")
                    timings["verify_seconds"] = outcome.seconds
                result = result_from_solution(
                    built,
                    solve_result,
                    solve_seconds=solve_seconds,
                    exact_assignment=exact_assignment,
                )
                if verification is not None:
                    result.statistics["verify_repair_rounds"] = float(
                        verification.get("repair_rounds", 0)
                    )
                    result.statistics["verified"] = float(bool(verification.get("verified")))

            timings["total_seconds"] = time.perf_counter() - total_start
            response = response_from_result(
                request,
                result,
                submission_id=submission_id,
                timings=timings,
                from_cache=from_cache,
                shared_solve=shared,
                task=built,
                certificate=certificate,
                verification=verification,
            )
            # Escape-hatch submissions (live solver / pre-built task) carry
            # inputs the corpus fingerprints cannot see; never record them.
            if record and solver is None and task is None:
                degree = request.options.degree
                self._maybe_record(
                    request,
                    response,
                    degree=int(degree) if isinstance(degree, int) else 0,
                    shared=shared,
                )
            return response
        except Exception as exc:  # per-request failures become structured errors
            timings["total_seconds"] = time.perf_counter() - total_start
            return SynthesisResponse(
                mode=request.mode,
                status="error",
                request_id=request.request_id,
                submission_id=submission_id,
                timings=timings,
                error=ErrorInfo.from_exception(exc),
                task=built,
                exception=exc,
            )

    def _weak_solve(
        self,
        request: SynthesisRequest,
        job,
        task: SynthesisTask,
        solver_override: Solver | None,
        task_override: SynthesisTask | None,
        budget: float | None = None,
    ) -> tuple[SolverResult, float, bool, dict[str, float]]:
        """Run (or share) the Step-4 solve within ``budget`` seconds of the deadline.

        Returns ``(result, seconds, shared, schedule_timings)`` — the last a
        (possibly empty) dict of ``schedule_*`` entries merged into the
        response timings when the corpus scheduler predicted this solve.
        """
        options = self._effective_solver_options(request, budget)
        schedule: dict[str, float] = {}
        plan: SchedulePlan | None = None
        if solver_override is not None or self.solver is not None:
            solver = solver_override if solver_override is not None else self.solver
            # An explicit solver keeps its own options, but the request's
            # deadline is a hard per-request bound: tighten the solver's
            # time_limit on a copy (never mutate a caller's solver).
            if request.deadline is not None:
                deadline = float(request.deadline) if budget is None else budget
                limit = (
                    deadline
                    if solver.options.time_limit is None
                    else min(solver.options.time_limit, deadline)
                )
                if limit != solver.options.time_limit:
                    solver = copy.copy(solver)
                    solver.options = replace(solver.options, time_limit=limit)
        else:
            if (
                task_override is None
                and job.options.strategy == "portfolio"
                and self._schedule_mode(request) == "on"
            ):
                plan = self._plan_solve(request, job, task)
            if plan is not None and plan.predicted:
                # Predicted winner first, rest of the line-up staggered
                # behind the learned grace period — reordered, never pruned.
                solver = PortfolioSolver(
                    options,
                    strategies=plan.strategy_order,
                    stagger_seconds=plan.stagger_seconds,
                )
                schedule = {
                    "schedule_predicted": 1.0,
                    "schedule_stagger_seconds": plan.stagger_seconds,
                    "schedule_neighbors": float(plan.neighbors),
                    "schedule_confidence": plan.confidence,
                }
            else:
                solver = make_solver(
                    job.options.strategy, options=options, portfolio=job.options.portfolio
                )

        # Escape-hatch submissions (live solver or pre-built task) bypass the
        # dedup table: their inputs are not captured by the request's keys.
        if solver_override is not None or task_override is not None:
            result, seconds = self._run_solve(solver, task.system)
            return result, seconds, False, schedule

        # The persistent solve store is the cross-process sibling of the
        # in-memory dedup table; an engine-level live solver is not captured
        # by content keys, so it opts the engine out.
        store_key: str | None = None
        if self.store is not None and self.solver is None:
            store_key = self.store.solves.key_for(
                request,
                self._schedule_mode(request) == "on",
                repr(self._effective_solver_options(request)),
            )
        key = self._solve_dedup_key(request, job)
        with self._solve_lock:
            future = self._solves.get(key)
            owner = future is None
            if owner:
                future = Future()
                self._solves[key] = future
                if self.max_cached_solves is not None:
                    # FIFO bound: dicts preserve insertion order, so the
                    # oldest entries are evicted first.  An evicted in-flight
                    # future stays alive for whoever already holds it.
                    while len(self._solves) > self.max_cached_solves:
                        self._solves.pop(next(iter(self._solves)))
        if not owner:
            result, seconds = future.result()
            return result, seconds, True, schedule
        if store_key is not None:
            stored = self.store.solves.load(store_key)
            if stored is not None:
                # Another process (or a previous life of this one) already
                # paid for this solve: publish it to waiters and skip Step 4.
                self._bump("store_solve_hits")
                future.set_result(stored)
                return stored[0], stored[1], True, schedule
        try:
            pair = self._run_solve(solver, task.system)
        except BaseException as exc:
            future.set_exception(exc)
            with self._solve_lock:
                # Failed solves are not cached: a resubmission retries.
                self._solves.pop(key, None)
            raise
        future.set_result(pair)
        if store_key is not None and self.store.solves.store(store_key, pair[0], pair[1]):
            self._bump("store_solve_writes")
        if plan is not None and plan.predicted:
            self._bump(
                "schedule_strategy_hits"
                if pair[0].strategy == plan.primary
                else "schedule_strategy_misses"
            )
        return pair[0], pair[1], False, schedule

    def _solve_dedup_key(self, request: SynthesisRequest, job) -> tuple:
        """The solve-dedup table key of a (non-escape-hatch) request.

        A scheduler-``"on"`` solve may race a reordered, staggered portfolio,
        so it never shares a table entry with the unscheduled shape of the
        same request (``"record-only"`` solves behave identically to
        ``"off"`` and do share).
        """
        options = self._effective_solver_options(request)
        return (
            job.solve_key(),
            self._schedule_mode(request) == "on",
            ("engine-solver", request.deadline)
            if self.solver is not None
            else ("resolved", repr(options)),
        )

    def _replace_cached_solve(
        self, request: SynthesisRequest, job, result: SolverResult, seconds: float
    ) -> None:
        """Overwrite a dedup entry with a repair-round result (already resolved)."""
        future: Future = Future()
        future.set_result((result, seconds))
        key = self._solve_dedup_key(request, job)
        with self._solve_lock:
            if key in self._solves:
                self._solves[key] = future
        if self.store is not None and self.solver is None:
            options = self._effective_solver_options(request)
            store_key = self.store.solves.key_for(
                request, self._schedule_mode(request) == "on", repr(options)
            )
            if self.store.solves.store(store_key, result, seconds, overwrite=True):
                self._bump("store_solve_writes")

    def _run_solve(self, solver: Solver, system) -> tuple[SolverResult, float]:
        """One Step-4 solve, with its own compute time (not queue latency)."""
        start = time.perf_counter()
        result = solver.solve(system)
        seconds = time.perf_counter() - start
        # Kernel-evaluation accounting of the batched Step-4 engines, surfaced
        # through :meth:`stats` next to the cache/dedup counters.
        self._bump("solver_residual_evaluations", result.residual_evaluations)
        self._bump("solver_jacobian_evaluations", result.jacobian_evaluations)
        with self._counter_lock:
            self._counters["solver_batch_width_max"] = max(
                self._counters["solver_batch_width_max"], result.batch_width
            )
        return result, seconds


# ---------------------------------------------------------------------------
# The module-level default engine (what the paper-named functions run on)
# ---------------------------------------------------------------------------

_default_engine: Engine | None = None
_default_engine_lock = threading.Lock()


def default_engine() -> Engine:
    """The shared module-level engine backing the four paper-named functions.

    Sequential (``workers=0``) and lazily created; its task cache persists
    across calls, so repeated syntheses of the same program reuse the Step 1-3
    reduction.  Both of its caches are size-bounded (FIFO) so a long-running
    process calling the paper-named functions over many distinct programs
    stays at a bounded footprint; use :func:`reset_default_engine` to drop
    the state entirely.
    """
    global _default_engine
    with _default_engine_lock:
        if _default_engine is None or _default_engine.closed:
            _default_engine = Engine(cache=TaskCache(max_entries=128), max_cached_solves=256)
        return _default_engine


def reset_default_engine() -> None:
    """Close and discard the module-level engine (and its caches)."""
    global _default_engine
    with _default_engine_lock:
        if _default_engine is not None:
            _default_engine.close()
            _default_engine = None
