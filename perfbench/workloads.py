"""The two workloads' inputs, generated from the workload seed.

The program under test only ever sees the request documents built here.
Both workloads draw from the quick suite (``quick_subset(all_benchmarks())``,
Upsilon 1, each benchmark's table degree and its paper target objective)
with one fixed Step-4 budget per request.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterator, NamedTuple

#: The Step-4 budget of every request, as in the solver bench.
SOLVE_BUDGET = {"restarts": 1, "max_iterations": 150, "time_limit": 15.0}

#: The exact lifts of these programs always need a repair round, which
#: re-races the portfolio, so their outcome depends on which strategy wins
#: the race.  recursive-cube-sum now and then (a few runs in a hundred) needs
#: a second round and ends unverified after ~36 s instead of verified after
#: ~2 s; merge-sort does so in about one cold run in five, after ~35 s
#: instead of ~7 s.  In the pass, such a miss would make two sets of runs of
#: the same code disagree, so each runs after the pass, alone in a fresh
#: process, as a known-defect probe: recursive-cube-sum (~2 s) on every run,
#: merge-sort on traced runs only, to keep the timed runs short.
COLD_SUITE_PROBED_EVERY_RUN = ("recursive-cube-sum",)
COLD_SUITE_PROBED_TRACED = ("merge-sort",)

#: Left out of the timed ``cold-suite`` pass: the probed programs, and
#: strict-inverted-pendulum (~15 s cold), so that the runs fit the
#: benchmark's time budget.  inverted-pendulum stays and exercises the same
#: 12-variable grlex basis build and a Step-4 polish that runs into the time
#: limit.
COLD_SUITE_EXCLUDED = frozenset(
    COLD_SUITE_PROBED_EVERY_RUN + COLD_SUITE_PROBED_TRACED + ("strict-inverted-pendulum",)
)

#: recursive-cube-sum's exact tier sometimes runs to the 30 s deadline and
#: ends unverified, and under ``portfolio`` it sometimes answers
#: ``no_invariant``, which is not stored, so its repeats recompute and can
#: answer differently.  One such draw turns a 45 s ``service-mix`` run into a
#: 120 s one, so this shape runs as a known-defect probe on every run instead.
SERVICE_MIX_PROBED = ("recursive-cube-sum", "exact", "auto", "portfolio")

#: Left out of ``service-mix``: the quick-suite programs whose quick-preset
#: system has 10,000 constraints or more (inverted-pendulum 32,784;
#: strict-inverted-pendulum 37,032; merge-sort 10,951), which ``cold-suite``
#: measures, and the probed program.
SERVICE_MIX_EXCLUDED = frozenset(
    {"inverted-pendulum", "strict-inverted-pendulum", "merge-sort", SERVICE_MIX_PROBED[0]}
)

VERIFY_TIERS = ("none", "exact")
DEGREES = ("table", "auto")
#: ``portfolio`` is not in the stream: its race makes single solves of
#: programs that normally take under a second take 5-10 s now and then, which
#: moved a run's total compute between 44 s and 73 s across seeds.  It runs
#: in the probe below on every ``service-mix`` run instead.
STRATEGIES = ("default",)

#: Every ``service-mix`` request carries this deadline (seconds).
SERVICE_DEADLINE = 30.0


class Shape(NamedTuple):
    """One ``service-mix`` request class; repeats of a shape are identical requests."""

    program: str
    verify: str
    degree: str
    strategy: str


def quick_suite_names() -> list[str]:
    """Names of the quick-suite programs, in registry order."""
    from repro.bench.runner import quick_subset
    from repro.suite.registry import all_benchmarks

    return [benchmark.name for benchmark in quick_subset(all_benchmarks())]


def cold_suite_order(seed: int, names: list[str] | None = None) -> list[str]:
    """The ``cold-suite`` programs in the seed's permutation."""
    names = [name for name in (names or quick_suite_names()) if name not in COLD_SUITE_EXCLUDED]
    random.Random(seed).shuffle(names)
    return names


def service_shapes() -> list[Shape]:
    """All request shapes ``service-mix`` draws from, in a fixed order."""
    programs = [name for name in quick_suite_names() if name not in SERVICE_MIX_EXCLUDED]
    return [
        Shape(program, verify, degree, strategy)
        for program in programs
        for verify in VERIFY_TIERS
        for degree in DEGREES
        for strategy in STRATEGIES
    ]


def service_stream(seed: int | str, shapes: list[Shape]) -> Iterator[Shape]:
    """The seeded, endless ``service-mix`` request stream.

    Each next request repeats an earlier shape (uniformly) with probability
    one half and is otherwise a shape not sent yet; once every shape has been
    sent, every request is a repeat.
    """
    rng = random.Random(seed)
    unused = list(shapes)
    rng.shuffle(unused)
    used: list[Shape] = []
    while True:
        if used and (not unused or rng.random() < 0.5):
            yield rng.choice(used)
        else:
            shape = unused.pop()
            used.append(shape)
            yield shape


def request_document(
    program: str,
    verify: str = "exact",
    degree: str = "table",
    strategy: str = "default",
    deadline: float | None = None,
    request_id: str | None = None,
) -> dict:
    """The JSON request document of one suite program in the given shape."""
    from repro.api.request import SynthesisRequest
    from repro.bench.runner import request_from_benchmark
    from repro.solvers.base import SolverOptions
    from repro.suite.registry import get_benchmark

    benchmark = get_benchmark(program)
    overrides = {"degree": "auto"} if degree == "auto" else {}
    request = request_from_benchmark(benchmark, solve=True, quick=True, **overrides)
    options = dataclasses.replace(request.options, verify=verify)
    if strategy != "default":
        options = dataclasses.replace(options, strategy=strategy)
    request = dataclasses.replace(
        request,
        options=options,
        solver_options=SolverOptions(**SOLVE_BUDGET),
        deadline=deadline,
        request_id=request_id if request_id is not None else program,
    )
    return SynthesisRequest.from_dict(request.to_dict()).to_dict()


def shape_document(shape: Shape, request_id: str) -> dict:
    return request_document(
        shape.program,
        verify=shape.verify,
        degree=shape.degree,
        strategy=shape.strategy,
        deadline=SERVICE_DEADLINE,
        request_id=request_id,
    )
