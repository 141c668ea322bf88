"""Start ``repro.server`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/launcher.py <trace-dir> [repro.server arguments]``.

The wrappers go in before the engine forks its workers (start method
``fork``), so the workers inherit them.  SIGTERM flushes the spans still in
memory, in the server and in each worker, before the process exits.
"""

from __future__ import annotations

import os
import signal
import sys

import tracing


def main() -> None:
    trace_dir = sys.argv[1]
    tracer = tracing.install(trace_dir)

    def flush_and_exit(signum, frame):
        tracer.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, flush_and_exit)
    from repro.server.__main__ import main as serve

    sys.exit(serve(sys.argv[2:]))


if __name__ == "__main__":
    main()
