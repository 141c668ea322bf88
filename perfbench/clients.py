"""The ``service-mix`` load generator: closed-loop clients, one process each.

Clients are processes rather than threads so that their own JSON handling
never contends for one interpreter lock and shows up as server latency.  They
share one request counter: request ``i`` is the ``i``-th element of the
seeded stream, whichever client sends it.  A client stops once the stream's
first ``length`` requests are claimed.
"""

from __future__ import annotations

import itertools
import os
import time


def client(url, seed, prefix, length, documents, timeout, counter, ready, start, results) -> None:
    from repro.server import ServerError, SynthesisClient

    import workloads

    stream = workloads.service_stream(seed, list(documents))
    position = -1
    connection = SynthesisClient(url, timeout=timeout)
    records = []
    ready.put(os.getpid())
    start.wait()
    while True:
        with counter.get_lock():
            index = counter.value
            if index >= length:
                break
            counter.value += 1
        shape = next(itertools.islice(stream, index - position - 1, None))
        position = index
        document = dict(documents[shape], request_id=f"{prefix}r{index:05d}")
        sent = time.perf_counter()
        envelope, error = None, None
        try:
            envelope = connection.synthesize(document)
        except (ServerError, OSError) as exc:
            error = type(exc).__name__
        replied = time.perf_counter()
        records.append(
            {
                "index": index,
                "shape": shape,
                "latency": replied - sent,
                "replied": replied,
                "envelope": envelope,
                "error": error,
            }
        )
    results.put(records)
