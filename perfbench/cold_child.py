"""The ``cold-suite`` child: one fresh process with an in-process default ``Engine()``.

Usage: ``python perfbench/cold_child.py [<trace-dir>]``.

Prints ``ready`` once a request can be sent, then answers each line
``{"request": <document>}`` on standard input with one line holding the
response envelope.
"""

from __future__ import annotations

import json
import sys


def main() -> None:
    tracer = None
    if len(sys.argv) > 1:
        import tracing

        tracer = tracing.install(sys.argv[1])
    from repro.api import Engine, SynthesisRequest

    engine = Engine()
    print("ready", flush=True)
    for line in sys.stdin:
        response = engine.synthesize(SynthesisRequest.from_dict(json.loads(line)["request"]))
        sys.stdout.write(json.dumps(response.to_dict(), default=str) + "\n")
        sys.stdout.flush()
    engine.close()
    if tracer is not None:
        tracer.flush()


if __name__ == "__main__":
    main()
