"""End-to-end certified synthesis: verify="exact" through the Engine.

Covers the certificate-carrying response contract: the running example and
two recursive suite programs produce certificates that survive the JSON round
trip and re-validate independently, and a deliberately crippled first solve
demonstrably goes through a repair round to a verified result.
"""

import dataclasses
import time

import pytest

from repro.api import Engine, SynthesisRequest, SynthesisResponse
from repro.certify import Certificate, check_certificate
from repro.pipeline.jobs import job_from_benchmark
from repro.solvers.base import SolverOptions
from repro.suite.registry import get_benchmark
from repro.suite.running_example import RUNNING_EXAMPLE

BENCH_SOLVE = SolverOptions(restarts=1, max_iterations=200, time_limit=60.0)


def _exact_request(benchmark, **option_overrides) -> SynthesisRequest:
    job = job_from_benchmark(benchmark, quick=True)
    overrides = {"verify": "exact", "strategy": "portfolio", **option_overrides}
    options = dataclasses.replace(job.options, **overrides)
    return SynthesisRequest(
        program=benchmark.source,
        mode="weak",
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=options,
        solver_options=BENCH_SOLVE,
        request_id=benchmark.name,
    )


@pytest.mark.parametrize(
    "name", ["sum", "recursive-sum", "recursive-square-sum"]
)
def test_exact_verification_round_trip(name):
    benchmark = RUNNING_EXAMPLE if name == "sum" else get_benchmark(name)
    with Engine() as engine:
        response = engine.synthesize(_exact_request(benchmark))
    assert response.status == "ok", response.error
    assert response.verification is not None
    assert response.verification["verified"] is True
    assert response.certificate is not None

    # Extract -> JSON -> re-check: the certificate survives the wire format
    # and re-validates from scratch, bound to the task's proof obligations.
    wire = SynthesisResponse.from_json(response.to_json())
    certificate = Certificate.from_dict(wire.certificate)
    check = check_certificate(certificate, task=response.task)
    assert check.ok, check.summary()
    assert check.pairs_checked == len(response.task.pairs)

    # The reported invariant is the certified one: its coefficients are the
    # exact rational assignment, not the float solver output.
    assert response.invariants


def test_repair_round_reaches_a_verified_result():
    """A deliberately crippled first solve is repaired to a certified one.

    The pure-feasibility Gauss-Newton sprint deterministically lands on a
    boundary solution whose positivity witnesses live inside the float
    slack — exactly the kind of pseudo-solution the exact lift rejects — and
    the repair loop's tightened re-race must then reach a certificate.
    """
    benchmark = get_benchmark("recursive-cube-sum")
    request = _exact_request(benchmark, max_repair_rounds=3, strategy="gauss-newton")
    with Engine() as engine:
        response = engine.synthesize(request)
    assert response.status == "ok", response.error
    verification = response.verification
    assert verification is not None
    assert verification["verified"] is True, verification
    assert verification["repaired"] is True
    assert verification["repair_rounds"] >= 1
    certificate = Certificate.from_dict(response.certificate)
    assert check_certificate(certificate, task=response.task).ok


def test_sample_tier_and_counters():
    benchmark = RUNNING_EXAMPLE
    job = job_from_benchmark(benchmark, quick=True)
    options = dataclasses.replace(job.options, verify="sample", strategy="portfolio")
    request = SynthesisRequest(
        program=benchmark.source,
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=options,
        solver_options=BENCH_SOLVE,
    )
    with Engine() as engine:
        response = engine.synthesize(request)
        stats = engine.stats()
    assert response.status == "ok"
    assert response.verification["mode"] == "sample"
    assert response.verification["verified"] is True
    assert response.certificate is None  # sampling does not issue certificates
    assert stats["verify_requested"] == 1.0
    assert stats["verify_passed"] == 1.0


def test_sample_tier_honours_the_request_deadline():
    """Simulating oscillator in exact arithmetic never ends in practice (each
    loop iteration roughly doubles the cost of the next), so the sample tier
    must stop at the request deadline and say so."""
    benchmark = get_benchmark("oscillator")
    job = job_from_benchmark(benchmark, quick=True)
    deadline = 3.0
    request = SynthesisRequest(
        program=benchmark.source,
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=dataclasses.replace(job.options, verify="sample"),
        solver_options=SolverOptions(restarts=1, max_iterations=150, time_limit=15.0),
        deadline=deadline,
    )
    start = time.perf_counter()
    with Engine() as engine:
        response = engine.synthesize(request)
    elapsed = time.perf_counter() - start
    assert elapsed < 3 * deadline
    assert SynthesisResponse.from_json(response.to_json()) == response
    assert response.status == "ok"  # the solve itself takes well under a second
    assert response.verification["verified"] is False
    assert "deadline" in response.verification["reason"]


def test_strong_modes_reject_verification_up_front():
    from repro.api import RequestValidationError

    benchmark = RUNNING_EXAMPLE
    job = job_from_benchmark(benchmark, quick=True)
    options = dataclasses.replace(job.options, verify="exact")
    with pytest.raises(RequestValidationError) as excinfo:
        SynthesisRequest(
            program=benchmark.source,
            mode="strong",
            precondition=benchmark.precondition,
            options=options,
        )
    assert any(error["field"] == "options.verify" for error in excinfo.value.errors)


def test_verify_options_round_trip_through_request_json():
    benchmark = RUNNING_EXAMPLE
    request = _exact_request(benchmark, max_repair_rounds=1, verify_seed=42)
    rebuilt = SynthesisRequest.from_json(request.to_json())
    assert rebuilt.options.verify == "exact"
    assert rebuilt.options.max_repair_rounds == 1
    assert rebuilt.options.verify_seed == 42
    assert rebuilt == request or rebuilt.to_dict() == request.to_dict()
