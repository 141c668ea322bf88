"""Spans around the public entry points of each layer, and their analysis.

:func:`install` wraps the entry points below (from the benchmark's side; the
program is unchanged) so that every call records a span: name, start, end,
parent span and request id.  Spans stay in memory until the root span of a
request ends (the engine span in a serving process, the ``run_job`` span in
a worker) and are then appended to ``spans-<pid>.jsonl`` in the trace
directory, so worker-side spans survive a process-group kill.

=====================  ===================================================
span                   entry point
=====================  ===================================================
``reduction``          ``TaskCache.get_or_build_with_report``
``reduction.<stage>``  ``repro.reduction.stages.run_<stage>`` (via the plan)
``solvers.compile``    ``repro.solvers.problem.compile_problem``
``solvers.solve``      ``Solver.solve``
``certify``            ``repro.certify.verify.verify_solution``
``certify.lift``       ``lift_solution`` as called by ``verify_solution``
``certify.check``      ``check_certificate`` as called by ``verify_solution``
``certify.repair``     ``repair_solution`` as called by ``verify_solution``
``store.get/put``      ``BlobStore.get`` / ``BlobStore.put``
``api.engine``         ``Engine.submit`` until its future completes
``api.hop``            ``ProcessWorkerPool.execute`` (parent side)
``api.run_job``        ``repro.api.workers.run_job`` (worker side)
=====================  ===================================================

All times are ``time.perf_counter()`` readings, which on Linux come from the
system-wide monotonic clock and so compare across processes of one host.
"""

from __future__ import annotations

import contextvars
import functools
import glob
import itertools
import json
import os
import threading
import time

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

STAGES = ("frontend", "preconditions", "templates", "pairs", "translation")


class Span:
    __slots__ = ("id", "parent", "name", "request_id", "start", "end", "attrs", "cost")

    def __init__(self, span_id: str, parent: "Span | None", name: str, request_id) -> None:
        self.id = span_id
        self.parent = parent.id if parent is not None else None
        self.name = name
        self.request_id = request_id if request_id is not None else (
            parent.request_id if parent is not None else None
        )
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict = {}
        self.cost = 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "request_id": self.request_id,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "cost": self.cost,
        }


class Tracer:
    """Collects the spans of one process and writes them out per request."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._pid = os.getpid()
        self._done: list[Span] = []

    def open(self, name: str, request_id=None) -> tuple[Span, float]:
        entered = time.perf_counter()
        span = Span(f"{self._pid}.{next(self._ids)}", _CURRENT.get(), name, request_id)
        span.start = time.perf_counter()
        return span, entered

    def close(self, span: Span, entered: float, attrs: dict | None = None) -> None:
        """End ``span``; a root span writes out its request's spans, and its
        ``cost`` (time spent in the tracer) includes that write."""
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        with self._lock:
            if span.parent is None:
                self._write(self._done)
                self._done = []
            span.cost = (span.start - entered) + (time.perf_counter() - span.end)
            if span.parent is None:
                self._write([span])
            else:
                self._done.append(span)

    def _write(self, spans: list[Span]) -> None:
        path = os.path.join(self.out_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(span.to_dict()) + "\n" for span in spans))

    def flush(self) -> None:
        with self._lock:
            self._write(self._done)
            self._done = []

    def wrap(self, name: str, fn, attrs=None, request_id=None):
        """``fn`` with a span around every call; ``attrs(result)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, entered = self.open(name, request_id(args) if request_id else None)
            token = _CURRENT.set(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                _CURRENT.reset(token)
                self.close(span, entered, {"error": True})
                raise
            _CURRENT.reset(token)
            self.close(span, entered, attrs(result) if attrs else None)
            return result

        return traced


def _solve_attrs(result) -> dict:
    return {
        "feasible": result.feasible,
        "timed_out": bool(result.details.get("timed_out", 0.0)),
        "residual_evaluations": int(result.residual_evaluations),
        "jacobian_evaluations": int(result.jacobian_evaluations),
    }


def _reduction_attrs(result) -> dict:
    task, from_cache, _ = result
    attrs = {"from_cache": bool(from_cache)}
    if not from_cache:
        attrs["constraints"] = int(task.system.size)
    return attrs


def install(out_dir: str) -> Tracer:
    """Install the span wrappers in this process; returns the tracer."""
    import concurrent.futures

    import repro.api.engine as engine_mod
    import repro.api.workers as workers_mod
    import repro.certify.verify as verify_mod
    import repro.pipeline.cache as cache_mod
    import repro.reduction.plan as plan_mod
    import repro.solvers.base as solver_base
    import repro.solvers.problem as problem_mod
    import repro.store.blobs as blobs_mod

    tracer = Tracer(out_dir)

    cache_mod.TaskCache.get_or_build_with_report = tracer.wrap(
        "reduction", cache_mod.TaskCache.get_or_build_with_report, _reduction_attrs
    )
    for stage in STAGES:
        attr = f"run_{stage}"
        setattr(plan_mod, attr, tracer.wrap(f"reduction.{stage}", getattr(plan_mod, attr)))
    problem_mod.compile_problem = tracer.wrap("solvers.compile", problem_mod.compile_problem)
    solver_base.Solver.solve = tracer.wrap("solvers.solve", solver_base.Solver.solve, _solve_attrs)
    verify_mod.verify_solution = tracer.wrap(
        "certify",
        verify_mod.verify_solution,
        lambda outcome: {"verified": bool(outcome.verified)},
    )
    verify_mod.lift_solution = tracer.wrap("certify.lift", verify_mod.lift_solution)
    verify_mod.check_certificate = tracer.wrap("certify.check", verify_mod.check_certificate)
    verify_mod.repair_solution = tracer.wrap(
        "certify.repair", verify_mod.repair_solution, lambda outcome: {"rounds": outcome.rounds_used}
    )
    _wrap_store(tracer, blobs_mod.BlobStore)
    workers_mod.ProcessWorkerPool.execute = tracer.wrap(
        "api.hop",
        workers_mod.ProcessWorkerPool.execute,
        request_id=lambda args: args[1].get("request_id"),
    )
    # Pickled by reference (module + qualified name, both kept by ``wraps``),
    # so forked workers unpickle this wrapper.
    workers_mod.run_job = tracer.wrap(
        "api.run_job",
        workers_mod.run_job,
        request_id=lambda args: json.loads(args[0])["request"].get("request_id"),
    )
    _wrap_engine_submit(tracer, engine_mod.Engine)
    _propagate_context(concurrent.futures.ThreadPoolExecutor)
    return tracer


def _wrap_store(tracer: Tracer, store_cls) -> None:
    """``store.get``/``store.put`` spans carry the namespace and the outcome."""
    original_get = store_cls.get
    original_put = store_cls.put

    @functools.wraps(original_get)
    def get(self, namespace, key):
        span, entered = tracer.open("store.get")
        result = None
        try:
            result = original_get(self, namespace, key)
            return result
        finally:
            tracer.close(span, entered, {"namespace": namespace, "hit": result is not None})

    @functools.wraps(original_put)
    def put(self, namespace, key, payload, overwrite=False):
        span, entered = tracer.open("store.put")
        try:
            return original_put(self, namespace, key, payload, overwrite)
        finally:
            tracer.close(span, entered, {"namespace": namespace})

    store_cls.get = get
    store_cls.put = put


def _wrap_engine_submit(tracer: Tracer, engine_cls) -> None:
    """``api.engine`` spans run from ``Engine.submit`` until the request's future completes."""
    original = engine_cls.submit

    @functools.wraps(original)
    def submit(self, request, **kwargs):
        span, entered = tracer.open("api.engine", getattr(request, "request_id", None))
        token = _CURRENT.set(span)
        try:
            handle = original(self, request, **kwargs)
        except BaseException:
            _CURRENT.reset(token)
            tracer.close(span, entered, {"error": True})
            raise
        _CURRENT.reset(token)
        handle._future.add_done_callback(lambda _: tracer.close(span, entered))
        return handle

    engine_cls.submit = submit


def _propagate_context(executor_cls) -> None:
    """Run thread-pool work in the submitter's context, so spans keep their parent."""
    original = executor_cls.submit

    @functools.wraps(original)
    def submit(self, fn, /, *args, **kwargs):
        return original(self, contextvars.copy_context().run, fn, *args, **kwargs)

    executor_cls.submit = submit


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def load_spans(out_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _covered(interval: tuple[float, float], others: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the ``others`` cover."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in others if b > lo and a < hi)
    covered, cursor = 0.0, lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            covered += b - a
            cursor = b
    return covered


def children_of(spans: list[dict]) -> dict[str, list[dict]]:
    """Each span's children: same-process children by parent id, plus the
    worker's ``api.run_job`` span under the parent's ``api.hop`` of the same
    request (the one link that crosses the process boundary)."""
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    hops = {span["request_id"]: span for span in spans if span["name"] == "api.hop"}
    for span in spans:
        if span["name"] == "api.run_job" and span["request_id"] in hops:
            children.setdefault(hops[span["request_id"]]["id"], []).append(span)
    return children


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = children_of(spans)
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(
            (span["start"], span["end"]),
            [(child["start"], child["end"]) for child in children.get(span["id"], [])],
        )
        for span in spans
    }
