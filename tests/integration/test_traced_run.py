"""The repository benchmark's traced run still finds the entry points it wraps.

``perfbench/tracing.py`` replaces named functions of ``src/`` with span
wrappers (the task cache, the plan's stage runners, the solver, the certify
steps, the store, the worker hop and ``Engine.submit``).  A rename or a
deletion there would only show when someone runs the benchmark with
``--trace 1``; this test installs the wrappers in a fresh interpreter, sends
one reduce-only request and checks that the reduction spans are written.
The benchmark's files are imported read-only.
"""

import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SCRIPT = textwrap.dedent(
    """
    import sys

    import tracing
    from repro.api import Engine
    from repro.bench.runner import request_from_benchmark
    from repro.suite.registry import get_benchmark

    tracing.install(sys.argv[1])
    request = request_from_benchmark(get_benchmark("sum"), solve=False, quick=True)
    with Engine() as engine:
        response = engine.synthesize(request)
    assert response.status == "reduced", response.error
    """
)


def test_traced_run_writes_reduction_spans(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no __pycache__ in perfbench/
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    spans = [
        json.loads(line)
        for path in tmp_path.glob("spans-*.jsonl")
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    names = {span["name"] for span in spans}
    assert {"api.engine", "reduction", "reduction.translation"} <= names
    by_id = {span["id"]: span for span in spans}
    translation = next(span for span in spans if span["name"] == "reduction.translation")
    assert by_id[translation["parent"]]["name"] == "reduction"
