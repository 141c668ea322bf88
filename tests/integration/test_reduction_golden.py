"""Golden fingerprints of the largest quick-preset Step-3 systems.

Every constraint's kind, origin string and exact polynomial is hashed for the
three quick-suite programs whose systems are largest.  The digests are frozen:
a change to the reduction that alters any constraint, its order or its origin
text fails here.  The same cold build also bounds how many monomials the
reduction interns for good — the origin strings are named from the grlex
ranks that occur, never from a materialised basis.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

GOLDEN = {
    "inverted-pendulum": "5109c2adf914123cf298d8a71958ea1f43d70fe069f2131b9558149032e2aee0",
    "strict-inverted-pendulum": "74139dcba789b4ca65cd3d3758fe5089ae8a27ae5a9b6c1a1567dcf165cdbf18",
    "merge-sort": "2bb8eafa9d3624854055dce6d70b92887fdcc63af615b99fbc154c31e03def86",
}

#: Upper bound on monomials a cold inverted-pendulum build may intern.  The
#: full 12-variable degree-9 grlex basis alone is 293,930 monomials.
MAX_INTERNED = 200_000

_CHILD = textwrap.dedent(
    """
    import hashlib, json, sys

    from repro.invariants.synthesis import build_task
    from repro.pipeline.jobs import job_from_benchmark
    from repro.polynomial.monomial import Monomial
    from repro.suite.registry import get_benchmark


    def digest(system):
        h = hashlib.sha256()
        for constraint in system.constraints:
            terms = sorted(constraint.polynomial.items(), key=lambda item: item[0].sort_key())
            h.update(f"{constraint.kind.value}|{constraint.origin}|".encode())
            h.update(";".join(f"{m}:{q}" for m, q in terms).encode())
            h.update(b"\\n")
        return h.hexdigest()


    digests, interned = {}, None
    for name in sys.argv[1:]:
        job = job_from_benchmark(get_benchmark(name), quick=True)
        before = Monomial.interned_count()
        task = build_task(job.source, job.precondition, job.objective, job.options)
        if interned is None:
            interned = Monomial.interned_count() - before
        digests[name] = digest(task.system)
    print(json.dumps({"digests": digests, "interned": interned}))
    """
)


def test_quick_preset_systems_match_golden_digests():
    src = Path(__file__).resolve().parents[2] / "src"
    # A fresh interpreter: the interned-monomial table is process-global, and
    # inverted-pendulum goes first so its count starts from a cold table.
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, *GOLDEN],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["digests"] == GOLDEN
    assert report["interned"] < MAX_INTERNED
