"""The correctness gate and the statistics the report is built from.

A request counts as *failed* (not answered correctly) when it errored, timed
out, came back with a status other than ``ok``, is an exact-tier answer that
is not verified, carries a certificate that fails the independent re-check,
or is a repeat whose invariant or ``certificate_sha`` differs from the first
answer of its shape.  All of these count in ``failed``; only a failed
re-check is a wrong answer that also makes the run incorrect.  Nothing is
retried.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys

import numpy
import scipy.stats

#: A reply later than the request's deadline plus this grace counts as failed.
DEADLINE_GRACE = 30.0

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def failure_reasons(envelope: dict | None, exact: bool, error: str | None = None) -> list[str]:
    """Why one reply is not a correct answer (empty when it is one)."""
    if envelope is None:
        return [error or "no reply"]
    reasons = []
    if envelope.get("status") != "ok":
        reasons.append(f"status:{envelope.get('status')}")
    if envelope.get("error"):
        reasons.append(f"error:{envelope['error'].get('type')}")
    if exact:
        verification = envelope.get("verification") or {}
        if not verification.get("verified"):
            reasons.append("unverified")
        elif envelope.get("certificate") is None:
            reasons.append("verified-without-certificate")
    return reasons


def answer_key(envelope: dict) -> str:
    """What a repeated request must reproduce exactly: invariant and certificate sha."""
    verification = envelope.get("verification") or {}
    return json.dumps(
        [envelope.get("status"), envelope.get("invariants"), verification.get("certificate_sha")],
        sort_keys=True,
    )


def request_class(envelope: dict) -> str:
    """``store_hit``, ``rider`` (in-flight twin), ``shared_solve`` or ``full_miss``."""
    if envelope.get("served_from_store"):
        return "store_hit"
    if envelope.get("shared_solve"):
        # Only the owner of a worker job gets the parent's wall-clock stamp.
        timings = envelope.get("timings") or {}
        return "shared_solve" if "process_wall_seconds" in timings else "rider"
    return "full_miss"


def escalated_degree(envelope: dict):
    escalation = envelope.get("escalation") or {}
    return escalation.get("final_degree")


def run_recheck(items: list[dict], work_dir: str, root: str, plans: list[dict] | None = None) -> dict:
    """Re-check certificates in a separate process (see ``recheck.py``)."""
    source = os.path.join(work_dir, "recheck-in.json")
    target = os.path.join(work_dir, "recheck-out.json")
    with open(source, "w", encoding="utf-8") as handle:
        json.dump({"items": items, "plans": plans or []}, handle, default=str)
    command = [sys.executable, os.path.join(root, "perfbench", "recheck.py"), source, target]
    if plans:
        command.append("--replan")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run(command, cwd=root, env=env, check=True)
    with open(target, encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics ----------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile (``0 < q < 1``).

    A weighted mean of all order statistics, with the weights of a
    Beta(q (n + 1), (1 - q) (n + 1)) distribution, centred on rank
    ``q * (n + 1)``.  Where the samples are few and far apart (``cold-suite``
    has 23), it does not jump from one order statistic to the next when two
    neighbours swap places, as a single-rank estimate does.
    """
    ordered = numpy.sort(numpy.asarray(samples, dtype=float))
    count = len(ordered)
    edges = scipy.stats.beta.cdf(numpy.arange(count + 1) / count, q * (count + 1), (1 - q) * (count + 1))
    return float(numpy.diff(edges) @ ordered)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond rank ``q * (count + 1)``."""
    return count - math.floor(q * (count + 1))


def tail_resolved(count: int, q: float) -> bool:
    """Whether the ``q``-quantile of ``count`` samples has enough samples beyond it."""
    return samples_beyond(count, q) >= TAIL_SAMPLES


median = statistics.median
