"""The repository benchmark: one command, two workloads, a correctness gate.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload service-mix --seed 1 --seconds 45 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing installed in the
program; ``--trace 1`` is the separate traced run that reports per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report.  The full record of a run (per-program rows,
the generated request stream, the re-check results) is written to
``perfbench/.out/<workload>-seed<n>-trace<t>-<stamp>/result.json``.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import multiprocessing
import os
import queue
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import clients as clients_mod
import gate
import procs
import tracing
import workloads

WORKLOADS = ("cold-suite", "service-mix")

#: Set-ups per timed ``cold-suite`` run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: A ``service-mix`` stream sends this many requests per shape.  With one new
#: shape in two requests, every shape has been sent after about two requests
#: per shape, so every stream computes the same set of shapes.  The rest are
#: repeats served from the store, most of them after every shape was
#: computed: that puts the median among steady store hits and far more than
#: ten samples beyond the 95th percentile.
REQUESTS_PER_SHAPE = 12

#: A ``service-mix`` run drives at least this many streams, one after the
#: other, each against a fresh server and store with its own seeded stream.
#: Measuring the whole shape set three times over about 45 s averages out
#: much of the host's speed swings, which a single stream's figures follow.
SERVICE_MIN_STREAMS = 3
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2

#: Known-defect probe: oscillator with ``verify="sample"`` (see README).
PROBE_PROGRAM = "oscillator"
PROBE_DEADLINE = 1.0
PROBE_WAIT = 3.0

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "rss_peak_mb": "MB",
}

PER_LAYER = {
    "reduction.busy_s": "s",
    "reduction.calls": "count",
    **{f"reduction.{stage}.busy_s": "s" for stage in tracing.STAGES},
    "reduction.self_s": "s",
    "reduction.system_size": "count",
    "reduction.warm_busy_s": "s",
    "reduction.cold_over_warm": "ratio",
    "reduction.stage_hit_ratio": "ratio",
    "solvers.compile.busy_s": "s",
    "solvers.busy_s": "s",
    "solvers.calls": "count",
    "solvers.self_s": "s",
    "solvers.residual_evaluations": "count",
    "solvers.jacobian_evaluations": "count",
    "solvers.time_limit_hits": "count",
    "solvers.feasible_ratio": "ratio",
    "certify.busy_s": "s",
    "certify.lift.busy_s": "s",
    "certify.check.busy_s": "s",
    "certify.repair.busy_s": "s",
    "certify.self_s": "s",
    "certify.repair_rounds": "count",
    "certify.verified_ratio": "ratio",
    "certify.recheck_s": "s",
    "store.get.calls": "count",
    "store.put.calls": "count",
    "store.get.busy_s": "s",
    "store.put.busy_s": "s",
    "store.self_s": "s",
    "store.bytes": "bytes",
    "store.response_hit_ratio": "ratio",
    "api.self_s": "s",
    "api.queue_wait_s": "s",
    "api.hop_s": "s",
    "api.shared_ratio": "ratio",
    "server.roundtrip_s": "s",
    "server.self_s": "s",
    "trace.spans": "count",
    "trace.bookkeeping_s": "s",
    "trace.overhead_latency_p50_s": "s",
    "trace.overhead_throughput_rps": "1/s",
}




# ---------------------------------------------------------------------------
# cold-suite
# ---------------------------------------------------------------------------


class ColdChild:
    """One fresh ``cold_child.py`` process (closed loop, one request at a time)."""

    def __init__(self, root: str, trace_dir: str | None) -> None:
        command = [sys.executable, os.path.join(root, "perfbench", "cold_child.py")]
        if trace_dir is not None:
            command.append(trace_dir)
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def wait_ready(self) -> float:
        line = self.process.stdout.readline()
        if line.strip() != "ready":
            raise RuntimeError(f"cold-suite child did not start: {line!r}")
        return time.perf_counter() - self.started

    def call(self, message: dict) -> dict:
        self.process.stdin.write(json.dumps(message) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("cold-suite child exited mid-request")
        return json.loads(line)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=60)
        self.process.stdout.close()


def run_cold_suite(root: str, seed: int, seconds: float, trace_dir: str | None, out_dir: str) -> dict:
    names = workloads.cold_suite_order(seed)
    documents = {name: workloads.request_document(name) for name in names}
    setups = []
    child = None
    for _ in range(1 if trace_dir else SETUP_REPEATS):
        if child is not None:
            child.close()
        child = ColdChild(root, trace_dir)
        setups.append(child.wait_ready())

    records = []
    wall, passes = 0.0, 0
    with procs.RssSampler(lambda: procs.tree(child.process.pid)) as rss:
        # Whole passes over the suite, each in a fresh process.
        while another_unit(passes, wall, seconds, 1):
            if passes:
                child.close()
                child = ColdChild(root, trace_dir)
                child.wait_ready()
            pass_start = time.perf_counter()
            for name in names:
                start = time.perf_counter()
                envelope = child.call({"request": documents[name]})
                latency = time.perf_counter() - start
                records.append(
                    {"pass": passes, "program": name, "latency": latency, "envelope": envelope}
                )
            wall += time.perf_counter() - pass_start
            passes += 1
        rss.sample()
    child.close()
    # The probes are not part of the measurement.  The cold ones run one
    # after the other, side by side with the server probe.
    probed = workloads.COLD_SUITE_PROBED_EVERY_RUN
    if trace_dir is not None:
        probed += workloads.COLD_SUITE_PROBED_TRACED
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(probe, root, out_dir, False)
        cold = [probe_cold(root, program) for program in probed]
        probes, probe_items = pending.result()
    for name, record, item in cold:
        probes[name] = record
        probe_items += [item] if item else []

    for record in records:
        record["reasons"] = gate.failure_reasons(record["envelope"], exact=True)
    items = [
        {
            "key": str(index),
            "request": documents[record["program"]],
            "degree": None,
            "certificate": record["envelope"]["certificate"],
        }
        for index, record in enumerate(records)
        if not record["reasons"]
    ]
    plans = [documents[name] for name in names] if trace_dir is not None else None
    recheck = gate.run_recheck(items + probe_items, out_dir, root, plans)
    for key in rejected_keys(recheck, probes):
        records[int(key)]["reasons"].append("recheck-failed")
    return replan_fields(recheck) | {
        "setups": setups,
        "records": records,
        "wall": wall,
        "rss_peak_mb": rss.peak_mb,
        "recheck": recheck,
        "recheck_failed": sum(1 for result in recheck["results"] if not result["ok"]),
        "store_bytes": 0,
        "busy_workers_at_teardown": 0,
        "probe": probes,
    }


def another_unit(done: int, wall: float, seconds: float, minimum: int) -> bool:
    """Whether a run starts another whole unit of work (a ``cold-suite`` pass,
    a ``service-mix`` stream): always until ``minimum`` are done, then only
    while the mean unit so far says the next one ends within ``seconds``."""
    return done < minimum or wall + wall / done <= seconds


def cold_rows(records: list[dict]) -> list[dict]:
    """Per-program rows: latency, engine-reported split, outcome, why the solve ended."""
    rows = []
    for record in records:
        envelope = record["envelope"]
        timings = envelope.get("timings") or {}
        verification = envelope.get("verification") or {}
        rows.append(
            {
                "program": record["program"],
                "pass": record["pass"],
                "latency_s": record["latency"],
                "reduction_s": timings.get("reduction_seconds"),
                "solve_s": timings.get("solve_seconds"),
                "verify_s": timings.get("verify_seconds"),
                "status": envelope.get("status"),
                "verified": bool(verification.get("verified")),
                "repair_rounds": verification.get("repair_rounds"),
                "solver_status": envelope.get("solver_status"),
                # The envelope carries no time-out flag; a solve that used its
                # whole budget ran into the limit.
                "solve_timed_out": (timings.get("solve_seconds") or 0.0)
                >= workloads.SOLVE_BUDGET["time_limit"],
                "failed": record["reasons"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------


def drive(server: procs.Server, stream_seed: str, prefix: str, length: int, documents: dict):
    """One closed-loop stream of ``length`` requests: (records, wall seconds, peak RSS)."""
    context = multiprocessing.get_context("spawn")
    counter = context.Value("q", 0)
    ready, results, start = context.Queue(), context.Queue(), context.Event()
    arguments = (
        server.url,
        stream_seed,
        prefix,
        length,
        documents,
        workloads.SERVICE_DEADLINE + gate.DEADLINE_GRACE,
        counter,
        ready,
        start,
        results,
    )
    clients = [context.Process(target=clients_mod.client, args=arguments) for _ in range(SERVICE_CLIENTS)]
    for process in clients:
        process.start()
    for _ in clients:
        ready.get(timeout=120)
    with procs.RssSampler(lambda: procs.group(server.pgid)) as rss:
        began = time.perf_counter()
        start.set()
        records = collect(clients, results)
        wall = max(record["replied"] for record in records) - began
        rss.sample()
    for process in clients:
        process.join(timeout=60)
        if process.is_alive():
            process.kill()
            process.join()
    return records, wall, rss.peak_mb


def collect(clients: list, results) -> list[dict]:
    """Every client's records.  There is no overall time limit: each request
    is bounded by its client's timeout, and a late reply counts as failed."""
    batches = []
    while len(batches) < len(clients):
        try:
            batches.append(results.get(timeout=1.0))
        except queue.Empty:
            # A client that exited flushed its records first, so one more
            # look settles whether it exited without posting them.
            if not any(process.is_alive() for process in clients) and results.empty():
                raise RuntimeError("a service-mix client exited without its records") from None
    return [record for batch in batches for record in batch]


def run_service_mix(root: str, seed: int, seconds: float, trace_dir: str | None, out_dir: str) -> dict:
    shapes = workloads.service_shapes()
    documents = {shape: workloads.shape_document(shape, "") for shape in shapes}
    # The first set-up is an untraced server that hosts the known-defect probes.
    server = procs.Server(root, os.path.join(out_dir, "store-probe"), SERVICE_WORKERS)
    try:
        setups = [server.wait_ready()]
        probes, probe_items = probe_server(server, True)
    finally:
        server.stop()
    records: list[dict] = []
    wall, rss_peak, busy, store_bytes = 0.0, 0.0, 0, 0
    for epoch in itertools.count():
        if not another_unit(epoch, wall, seconds, SERVICE_MIN_STREAMS):
            break
        store_dir = os.path.join(out_dir, f"store{epoch}")
        server = procs.Server(root, store_dir, SERVICE_WORKERS, trace_dir)
        try:
            setups.append(server.wait_ready())
            epoch_records, epoch_wall, peak = drive(
                server,
                f"{seed}.{epoch}",
                f"e{epoch}-",
                REQUESTS_PER_SHAPE * len(shapes),
                documents,
            )
            busy += procs.busy_members(server.pgid, server.process.pid)
        finally:
            server.stop()
        records += [dict(record, epoch=epoch) for record in epoch_records]
        wall += epoch_wall
        rss_peak = max(rss_peak, peak)
        store_bytes += sum(
            os.path.getsize(path)
            for path in glob.glob(os.path.join(store_dir, "**", "*"), recursive=True)
            if os.path.isfile(path)
        )

    records.sort(key=lambda record: (record["epoch"], record["index"]))
    first_answer: dict = {}
    certificates: dict[str, dict] = {}
    for record in records:
        shape, envelope = record["shape"], record["envelope"]
        record["reasons"] = gate.failure_reasons(envelope, shape.verify == "exact", record["error"])
        if record["latency"] > workloads.SERVICE_DEADLINE + gate.DEADLINE_GRACE:
            record["reasons"].append("late")
        if envelope is None:
            continue
        record["class"] = gate.request_class(envelope)
        key = gate.answer_key(envelope)
        if first_answer.setdefault((record["epoch"], shape), key) != key:
            record["reasons"].append("repeat-mismatch")
        sha = (envelope.get("verification") or {}).get("certificate_sha")
        if shape.verify == "exact" and not record["reasons"] and sha not in certificates:
            certificates[sha] = {
                "key": sha,
                "request": documents[shape],
                "degree": gate.escalated_degree(envelope) if shape.degree == "auto" else None,
                "certificate": envelope["certificate"],
            }
    plans = None
    if trace_dir is not None:
        programs = sorted({record["shape"].program for record in records})
        plans = [workloads.request_document(program) for program in programs]
    recheck = gate.run_recheck(list(certificates.values()) + probe_items, out_dir, root, plans)
    rejected = rejected_keys(recheck, probes)
    for record in records:
        sha = ((record["envelope"] or {}).get("verification") or {}).get("certificate_sha")
        if sha in rejected:
            record["reasons"].append("recheck-failed")
    return replan_fields(recheck) | {
        "setups": setups,
        "records": records,
        "wall": wall,
        "rss_peak_mb": rss_peak,
        "recheck": recheck,
        "recheck_failed": sum(1 for result in recheck["results"] if not result["ok"]),
        "store_bytes": store_bytes,
        "busy_workers_at_teardown": busy,
        "probe": probes,
    }


# ---------------------------------------------------------------------------
# Known-defect probe
# ---------------------------------------------------------------------------


def replan_fields(recheck: dict) -> dict:
    """The re-check process's cold and warm re-run of the plans (traced runs only)."""
    replan = recheck.get("replan") or {}
    return {"cold_replan_seconds": replan.get("cold_seconds"), "warm_seconds": replan.get("warm_seconds")}


def rejected_keys(recheck: dict, probes: dict) -> set[str]:
    """Keys of the workload's certificates that failed the re-check; a failing
    probe certificate is marked on its probe record."""
    rejected = set()
    for result in recheck["results"]:
        if result["ok"]:
            continue
        if result["key"].startswith("probe:"):
            probes[result["key"][len("probe:"):]]["reasons"].append("recheck-failed")
        else:
            rejected.add(result["key"])
    return rejected


def _send(url: str, document: dict, timeout: float) -> tuple[dict | None, float]:
    from repro.server import ServerError, SynthesisClient

    start = time.perf_counter()
    try:
        envelope = SynthesisClient(url, timeout=timeout).synthesize(document)
    except (ServerError, OSError):
        envelope = None
    return envelope, time.perf_counter() - start


def _probe_record(name: str, document: dict, envelope: dict | None, seconds: float, exact: bool):
    """A probe's record, and its re-check item when it came back verified."""
    verification = (envelope or {}).get("verification") or {}
    record = {
        "deadline_s": document["deadline"],
        "reply_s": seconds,
        "censored": envelope is None,
        "status": (envelope or {}).get("status"),
        "verified": bool(verification.get("verified")),
        "repair_rounds": verification.get("repair_rounds"),
        "reasons": gate.failure_reasons(envelope, exact, error="no reply in time"),
    }
    item = None
    if exact and not record["reasons"]:
        item = {"key": f"probe:{name}", "request": document, "degree": gate.escalated_degree(envelope),
                "certificate": envelope["certificate"]}
    return record, item


def probe_server(server: procs.Server, flaky_shape: bool) -> tuple[dict, list[dict]]:
    """The known-defect probes that need a fresh server.

    Sends oscillator with ``verify="sample"`` and a short deadline (the reply
    time, or ``PROBE_WAIT`` censored) and, with ``flaky_shape``, side by side
    on the other worker, the shape ``service-mix`` leaves out.  Then
    terminates the server process alone and records how many workers
    outlived it and how many of those still burn CPU.  The caller kills the
    whole group afterwards.
    """
    sample = workloads.request_document(
        PROBE_PROGRAM, verify="sample", deadline=PROBE_DEADLINE, request_id="probe-sample"
    )
    flaky = workloads.shape_document(workloads.Shape(*workloads.SERVICE_MIX_PROBED), "probe-flaky")
    with ThreadPoolExecutor(max_workers=1) as pool:
        timeout = workloads.SERVICE_DEADLINE + gate.DEADLINE_GRACE
        pending = pool.submit(_send, server.url, flaky, timeout) if flaky_shape else None
        sample_reply, sample_s = _send(server.url, sample, PROBE_WAIT)
        flaky_reply, flaky_s = pending.result() if flaky_shape else (None, 0.0)
    server.process.terminate()
    server.process.wait()
    time.sleep(0.5)
    records, items = {}, []
    records["oscillator_sample"], _ = _probe_record("oscillator_sample", sample, sample_reply, sample_s, False)
    records["oscillator_sample"].update(
        workers_outliving_server=len(server.workers()),
        busy_workers_after_server_exit=procs.busy_members(server.pgid, server.process.pid),
    )
    if flaky_shape:
        name = "_".join(workloads.SERVICE_MIX_PROBED).replace("-", "_")
        records[name], item = _probe_record(name, flaky, flaky_reply, flaky_s, True)
        items += [item] if item else []
    return records, items


def probe(root: str, out_dir: str, flaky_shape: bool) -> tuple[dict, list[dict]]:
    server = procs.Server(root, os.path.join(out_dir, "store-probe"), SERVICE_WORKERS)
    try:
        server.wait_ready()
        return probe_server(server, flaky_shape)
    finally:
        server.stop()


def probe_cold(root: str, program: str) -> tuple[str, dict, dict | None]:
    """A program left out of ``cold-suite``, alone in a fresh process (see
    ``workloads``): the probe's name, record and re-check item."""
    document = workloads.request_document(program)
    name = f"{program.replace('-', '_')}_exact"
    child = ColdChild(root, None)
    child.wait_ready()
    start = time.perf_counter()
    envelope = child.call({"request": document})
    seconds = time.perf_counter() - start
    child.close()
    return (name, *_probe_record(name, document, envelope, seconds, True))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(run: dict) -> dict:
    latencies = [record["latency"] for record in run["records"]]
    replies = sum(1 for record in run["records"] if record["envelope"] is not None)
    return {
        "setup_s": gate.median(run["setups"]) if run["setups"] else None,
        "throughput_rps": replies / run["wall"],
        "latency_p50_s": gate.percentile(latencies, 0.5),
        "latency_p95_s": gate.percentile(latencies, 0.95),
        "rss_peak_mb": run["rss_peak_mb"],
    }


def _sum(values) -> float:
    return float(sum(values))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload: str, run: dict, spans: list[dict]) -> dict:
    by_id = {span["id"]: span for span in spans}

    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def named(name: str) -> list[dict]:
        return [span for span in spans if span["name"] == name]

    def under(span: dict, name: str) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    self_time = tracing.self_times(spans)
    records = run["records"]
    envelopes = [record["envelope"] for record in records if record["envelope"] is not None]
    metrics: dict[str, float] = {}

    reductions = named("reduction")
    stage_spans = [span for span in spans if span["name"].startswith("reduction.")]
    metrics["reduction.busy_s"] = _sum(map(duration, reductions))
    metrics["reduction.calls"] = float(len(reductions))
    for stage in tracing.STAGES:
        metrics[f"reduction.{stage}.busy_s"] = _sum(
            duration(span) for span in stage_spans if span["name"] == f"reduction.{stage}"
        )
    metrics["reduction.system_size"] = _sum(span["attrs"].get("constraints", 0) for span in reductions)
    metrics["reduction.warm_busy_s"] = run["warm_seconds"]
    metrics["reduction.cold_over_warm"] = _ratio(run["cold_replan_seconds"], run["warm_seconds"])
    possible = len(tracing.STAGES) * len(reductions)
    metrics["reduction.stage_hit_ratio"] = _ratio(possible - len(stage_spans), possible)

    solves = [span for span in named("solvers.solve") if not under(span, "solvers.solve")]
    metrics["solvers.compile.busy_s"] = _sum(map(duration, named("solvers.compile")))
    metrics["solvers.busy_s"] = _sum(map(duration, solves))
    metrics["solvers.calls"] = float(len(solves))
    for counter in ("residual_evaluations", "jacobian_evaluations"):
        metrics[f"solvers.{counter}"] = _sum(span["attrs"].get(counter, 0) for span in solves)
    metrics["solvers.time_limit_hits"] = _sum(bool(span["attrs"].get("timed_out")) for span in solves)
    metrics["solvers.feasible_ratio"] = _ratio(
        sum(bool(span["attrs"].get("feasible")) for span in solves), len(solves)
    )

    verifies = named("certify")
    metrics["certify.busy_s"] = _sum(map(duration, verifies))
    for part in ("lift", "check", "repair"):
        metrics[f"certify.{part}.busy_s"] = _sum(map(duration, named(f"certify.{part}")))
    metrics["certify.repair_rounds"] = _sum(span["attrs"].get("rounds", 0) for span in named("certify.repair"))
    metrics["certify.verified_ratio"] = _ratio(
        sum(bool(span["attrs"].get("verified")) for span in verifies), len(verifies)
    )
    metrics["certify.recheck_s"] = _sum(result["seconds"] for result in run["recheck"]["results"])

    gets, puts = named("store.get"), named("store.put")
    response_gets = [span for span in gets if span["attrs"].get("namespace") == "responses"]
    metrics["store.get.calls"] = float(len(gets))
    metrics["store.put.calls"] = float(len(puts))
    metrics["store.get.busy_s"] = _sum(map(duration, gets))
    metrics["store.put.busy_s"] = _sum(map(duration, puts))
    metrics["store.bytes"] = float(run["store_bytes"])
    metrics["store.response_hit_ratio"] = _ratio(
        sum(bool(span["attrs"].get("hit")) for span in response_gets), len(response_gets)
    )

    for layer in ("reduction", "solvers", "certify", "store"):
        metrics[f"{layer}.self_s"] = _sum(
            self_time[span["id"]] for span in spans if span["name"].split(".")[0] == layer
        )
    metrics["api.self_s"] = _sum(self_time[span["id"]] for span in named("api.engine"))
    jobs = {span["request_id"]: span for span in named("api.run_job")}
    hops = [(hop, jobs[hop["request_id"]]) for hop in named("api.hop") if hop["request_id"] in jobs]
    metrics["api.queue_wait_s"] = _sum(job["start"] - hop["start"] for hop, job in hops)
    metrics["api.hop_s"] = _sum(duration(hop) - duration(job) for hop, job in hops)
    classes = [gate.request_class(envelope) for envelope in envelopes]
    metrics["api.shared_ratio"] = _ratio(
        sum(c in ("rider", "shared_solve") for c in classes),
        sum(c != "store_hit" for c in classes),
    )

    if workload == "service-mix":
        engine_spans = {
            span["request_id"]: span for span in named("api.engine") if span["parent"] is None
        }
        metrics["server.roundtrip_s"] = _sum(record["latency"] for record in records)
        metrics["server.self_s"] = _sum(
            record["latency"] - duration(engine_spans[record["envelope"]["request_id"]])
            for record in records
            if record["envelope"] is not None and record["envelope"]["request_id"] in engine_spans
        )
    else:
        metrics["server.roundtrip_s"] = 0.0
        metrics["server.self_s"] = 0.0

    metrics["trace.spans"] = float(len(spans))
    # Tracing overhead: the traced value minus the untraced one, where the
    # untraced one is this run with the tracer's own measured time taken out.
    bookkeeping = metrics["trace.bookkeeping_s"] = _sum(span["cost"] for span in spans)
    metrics["trace.overhead_latency_p50_s"] = bookkeeping / len(records)
    metrics["trace.overhead_throughput_rps"] = end_to_end(run)["throughput_rps"] - len(envelopes) / max(
        1e-9, run["wall"] - bookkeeping
    )
    return metrics


def program_layer_split(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Self time per layer for each request id (the traced per-program split)."""
    self_time = tracing.self_times(spans)
    split: dict[str, dict[str, float]] = {}
    for span in spans:
        if span["request_id"] is None:
            continue
        layer = span["name"].split(".")[0]
        row = split.setdefault(span["request_id"], {})
        row[layer] = row.get(layer, 0.0) + self_time[span["id"]]
    return split


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def report(workload: str, run: dict, metrics: dict, units: dict, extra: dict) -> None:
    records = run["records"]
    failed = [record for record in records if record["reasons"]]
    print(f"perfbench {workload}: {len(records)} requests, {len(failed)} failed "
          f"(failed_ratio {len(failed) / len(records):.4f}), src lines {extra['src_lines']}")
    for record in failed:
        name = record.get("program") or record["shape"].program
        print(f"  failed: {name}: {', '.join(record['reasons'])}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    beyond = gate.samples_beyond(len(records), 0.95)
    print(f"  latency samples: {len(records)}, {beyond} beyond the 95th percentile"
          + ("" if gate.tail_resolved(len(records), 0.95) else " (fewer than ten: see the per-program rows)"))
    if "rows" in extra:
        # The traced run splits by layer self time; an untimed run reports
        # the engine's own timings.
        traced = "layer_self_s" in extra["rows"][0]
        print(f"  {'program':26s} {'latency_s':>9s} {'reduction':>9s} {'solvers':>8s} {'certify':>8s}  "
              f"outcome ({'traced self time' if traced else 'engine timings'})")
        for row in sorted(extra["rows"], key=lambda row: -row["latency_s"]):
            if traced:
                split = [row["layer_self_s"].get(layer, 0.0) for layer in ("reduction", "solvers", "certify")]
            else:
                split = [row[key] or 0.0 for key in ("reduction_s", "solve_s", "verify_s")]
            outcome = "verified" if row["verified"] else (row["status"] + " unverified")
            end = row["solver_status"] + (" (time limit)" if row["solve_timed_out"] else "")
            print(
                f"  {row['program']:26s} {row['latency_s']:9.3f} {split[0]:9.3f} {split[1]:8.3f} "
                f"{split[2]:8.3f}  {outcome}; solve: {end}"
            )
        print(f"  top-3 share of total latency: {extra['top3_share']:.3f}")
    if "classes" in extra:
        shares = ", ".join(f"{name} {share:.3f}" for name, share in extra["classes"].items())
        print(f"  request classes: {shares}")
    print(f"  busy workers at teardown: {run['busy_workers_at_teardown']}")
    print(f"  known-defect probe: {json.dumps(run['probe'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    procs.become_subreaper()

    out_root = os.path.join(root, "perfbench", ".out")
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    out_dir = os.path.join(out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}")
    trace_dir = os.path.join(out_dir, "spans") if args.trace else None
    os.makedirs(trace_dir or out_dir)

    runner = run_cold_suite if args.workload == "cold-suite" else run_service_mix
    try:
        run = runner(root, args.seed, args.seconds, trace_dir, out_dir)
    finally:
        procs.kill_descendants()
    # The stores and the re-check input are large and no longer needed.
    for path in glob.glob(os.path.join(out_dir, "store*")):
        shutil.rmtree(path)
    os.remove(os.path.join(out_dir, "recheck-in.json"))

    extra: dict = {"src_lines": src_lines(root)}
    if args.workload == "cold-suite":
        extra["rows"] = cold_rows(run["records"])
        latencies = sorted((row["latency_s"] for row in extra["rows"]), reverse=True)
        extra["top3_share"] = sum(latencies[:3]) / sum(latencies)
    else:
        replies = [record for record in run["records"] if record["envelope"] is not None]
        extra["classes"] = {
            name: sum(record["class"] == name for record in replies) / len(replies)
            for name in ("store_hit", "shared_solve", "rider", "full_miss")
        }
        extra["stream"] = [
            {
                "epoch": record["epoch"],
                "shape": list(record["shape"]),
                "class": record.get("class"),
                "latency_s": record["latency"],
            }
            for record in run["records"]
        ]
    if args.trace:
        spans = tracing.load_spans(trace_dir)
        metrics = per_layer(args.workload, run, spans)
        units = PER_LAYER
        if "rows" in extra:
            split = program_layer_split(spans)
            for row in extra["rows"]:
                row["layer_self_s"] = split.get(row["program"], {})
    else:
        metrics = end_to_end(run)
        units = END_TO_END
    report(args.workload, run, metrics, units, extra)

    failed = sum(1 for record in run["records"] if record["reasons"])
    result = {
        # Only a certificate that fails the re-check is a wrong answer; misses
        # (including repeat mismatches) count in ``failed``.
        "correct": run["recheck_failed"] == 0,
        "attempted": len(run["records"]),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    saved = dict(result, metrics=metrics, workload=args.workload, seed=args.seed, trace=args.trace)
    saved.update(
        extra,
        failed_ratio=failed / len(run["records"]),
        setups=run["setups"],
        probe=run["probe"],
        busy_workers_at_teardown=run["busy_workers_at_teardown"],
        recheck=run["recheck"]["results"],
        failures={
            str(position): record["reasons"]
            for position, record in enumerate(run["records"])
            if record["reasons"]
        },
    )
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(saved, handle, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
