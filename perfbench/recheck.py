"""Re-check certificates from their JSON, in a process of their own.

Usage: ``python perfbench/recheck.py <items.json> <results.json>``.

Each item is ``{"key", "request", "degree", "certificate"}``.  The
certificate is rebuilt with ``Certificate.from_dict`` and checked with
``check_certificate`` bound to the task's Step-2 constraint pairs, which are
rebuilt here from the request document (at ``degree`` when the request
escalated).  The binding reads nothing of the task but its pairs, so the
Step-3 translation is not rebuilt.

With ``--replan`` the payload's reduction plans are also executed twice,
each time against a fresh ``StageCache``: once cold (this process has built
nothing yet) and once warm.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from types import SimpleNamespace


def rebuild_pairs(document: dict, degree, cache: dict):
    from repro.api.request import SynthesisRequest
    from repro.reduction.stages import run_frontend, run_pairs, run_preconditions, run_templates

    job = SynthesisRequest.from_dict(document).job()
    options = job.options if degree is None else dataclasses.replace(job.options, degree=int(degree))
    key = (job.source, json.dumps(document.get("precondition"), sort_keys=True), repr(options))
    if key not in cache:
        frontend = run_frontend(job.source)
        precondition = run_preconditions(frontend, job.precondition, options)
        cache[key] = run_pairs(frontend, precondition, run_templates(frontend, options))
    return cache[key]


def recheck(items: list[dict]) -> list[dict]:
    from repro.certify import Certificate, check_certificate

    pairs_cache: dict = {}
    results = []
    for item in items:
        start = time.perf_counter()
        try:
            pairs = rebuild_pairs(item["request"], item.get("degree"), pairs_cache)
            report = check_certificate(
                Certificate.from_dict(item["certificate"]), task=SimpleNamespace(pairs=pairs)
            )
            ok, summary = bool(report.ok), report.summary()
        except Exception as exc:  # a certificate that cannot even be rebuilt fails the gate
            ok, summary = False, f"{type(exc).__name__}: {exc}"
        results.append(
            {"key": item["key"], "ok": ok, "seconds": time.perf_counter() - start, "summary": summary}
        )
    return results


def replan(documents: list[dict]) -> float:
    """Seconds to execute the documents' reduction plans against one fresh stage cache."""
    from repro.api.request import SynthesisRequest
    from repro.reduction.cache import StageCache
    from repro.reduction.plan import compile_plan

    cache = StageCache()
    start = time.perf_counter()
    for document in documents:
        job = SynthesisRequest.from_dict(document).job()
        compile_plan(job.source, job.precondition, job.objective, job.options).execute(cache=cache)
    return time.perf_counter() - start


def replan_twice(documents: list[dict]) -> dict:
    cold = replan(documents)
    return {"cold_seconds": cold, "warm_seconds": replan(documents)}


def main() -> None:
    args = [arg for arg in sys.argv[1:] if arg != "--replan"]
    with open(args[0], encoding="utf-8") as handle:
        payload = json.load(handle)
    output = {}
    if "--replan" in sys.argv:
        # Before the re-check, so that "cold" means nothing was built yet.
        output["replan"] = replan_twice(payload["plans"])
    output["results"] = recheck(payload["items"])
    with open(args[1], "w", encoding="utf-8") as handle:
        json.dump(output, handle)


if __name__ == "__main__":
    main()
