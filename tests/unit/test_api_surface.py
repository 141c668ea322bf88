"""Snapshot of the public API surface.

These lists are the checked-in contract: adding, removing or renaming a
public name must update them deliberately, so accidental surface breaks fail
CI instead of shipping silently.
"""

import repro
import repro.api
import repro.certify
import repro.reduction

EXPECTED_REPRO_ALL = [
    "AUTO_DEGREE",
    "AlternatingSolver",
    "BlobStore",
    "Certificate",
    "CertificateCheck",
    "CheckReport",
    "CompiledProblem",
    "ConjunctiveAssertion",
    "Engine",
    "EngineStore",
    "ErrorInfo",
    "EscalationTrace",
    "FeasibilityObjective",
    "GaussNewtonSolver",
    "InfeasibleError",
    "Interpreter",
    "Invariant",
    "LiftResult",
    "Monomial",
    "ParseError",
    "PenaltyQCLPSolver",
    "Polynomial",
    "PolynomialError",
    "PortfolioSolver",
    "Postcondition",
    "Precondition",
    "QuadraticSystem",
    "ReductionPlan",
    "RepresentativeEnumerator",
    "ReproError",
    "RequestValidationError",
    "SchedulePlan",
    "Scheduler",
    "SemanticsError",
    "SolveCorpus",
    "SolverError",
    "SpecificationError",
    "StageCache",
    "SynthesisError",
    "SynthesisHandle",
    "SynthesisJob",
    "SynthesisOptions",
    "SynthesisRequest",
    "SynthesisResponse",
    "SynthesisResult",
    "SynthesisTask",
    "TaskCache",
    "TargetInvariantObjective",
    "TemplateSet",
    "ValidationError",
    "VerificationOutcome",
    "build_cfg",
    "build_task",
    "check_certificate",
    "check_invariant",
    "compile_plan",
    "compile_problem",
    "default_engine",
    "generate_constraint_pairs",
    "job_from_benchmark",
    "lift_solution",
    "open_store",
    "parse_assertion",
    "parse_polynomial",
    "parse_program",
    "pretty_print",
    "rec_strong_inv_synth",
    "rec_weak_inv_synth",
    "repair_solution",
    "reset_default_engine",
    "strong_inv_synth",
    "verify_solution",
    "weak_inv_synth",
    "__version__",
]

EXPECTED_CERTIFY_ALL = [
    "Certificate",
    "CertificateCheck",
    "CheckReport",
    "DENOMINATOR_LADDER",
    "ExactViolation",
    "LiftResult",
    "PairCertificate",
    "RepairOutcome",
    "RepairRound",
    "SOSWitness",
    "VERIFY_MODES",
    "VerificationOutcome",
    "Violation",
    "certify_assignment",
    "check_certificate",
    "check_invariant",
    "derive_argument_sets",
    "exact_violations",
    "harvest_trace_cuts",
    "is_psd",
    "ldl_decompose",
    "lift_solution",
    "rationalize",
    "repair_solution",
    "solve_linear",
    "verify_solution",
]

EXPECTED_API_ALL = [
    "Engine",
    "EngineClosedError",
    "ErrorInfo",
    "MODES",
    "RequestValidationError",
    "STRONG_MODES",
    "SynthesisHandle",
    "SynthesisRequest",
    "SynthesisResponse",
    "default_engine",
    "invariant_to_dict",
    "objective_from_dict",
    "objective_to_dict",
    "precondition_to_spec",
    "reset_default_engine",
    "response_from_result",
]


EXPECTED_REDUCTION_ALL = [
    "AUTO_DEGREE",
    "EscalationAttempt",
    "EscalationTrace",
    "ReductionPlan",
    "ReductionReport",
    "STAGE_NAMES",
    "StageCache",
    "StageExecution",
    "SynthesisOptions",
    "SynthesisTask",
    "compile_plan",
]


def test_repro_all_matches_snapshot():
    assert sorted(repro.__all__) == sorted(EXPECTED_REPRO_ALL)


def test_repro_api_all_matches_snapshot():
    assert sorted(repro.api.__all__) == sorted(EXPECTED_API_ALL)


def test_repro_reduction_all_matches_snapshot():
    assert sorted(repro.reduction.__all__) == sorted(EXPECTED_REDUCTION_ALL)


def test_repro_certify_all_matches_snapshot():
    assert sorted(repro.certify.__all__) == sorted(EXPECTED_CERTIFY_ALL)


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    for name in repro.api.__all__:
        assert getattr(repro.api, name, None) is not None, name
    for name in repro.reduction.__all__:
        assert getattr(repro.reduction, name, None) is not None, name
    for name in repro.certify.__all__:
        assert getattr(repro.certify, name, None) is not None, name


def test_paper_entry_points_route_through_the_engine():
    """The four paper-named functions are wrappers over the default engine."""
    import inspect

    from repro.invariants import synthesis

    for function in (
        synthesis.weak_inv_synth,
        synthesis.strong_inv_synth,
        synthesis.rec_weak_inv_synth,
        synthesis.rec_strong_inv_synth,
    ):
        assert "_run_request" in inspect.getsource(function), function.__name__
    assert "default_engine" in inspect.getsource(synthesis._run_request)
