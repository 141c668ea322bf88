"""repro.api — the typed service surface of the library.

Every caller — library user, batch script, the ``repro.bench`` CLI, the
HTTP server — goes through the same front door:

>>> from repro.api import Engine, SynthesisRequest
>>> with Engine(workers=4) as engine:                       # doctest: +SKIP
...     request = SynthesisRequest(program=source, mode="weak",
...                                precondition={"sum": {1: "n >= 1"}})
...     for response in engine.map([request, *more]):
...         print(response.submission_id, response.status)

Requests and responses round-trip through JSON (``to_json``/``from_json``);
malformed documents raise a structured
:class:`~repro.api.errors.RequestValidationError` naming each offending
field.  Per-request synthesis failures never raise out of the engine — they
arrive as ``status="error"`` responses carrying an
:class:`~repro.api.response.ErrorInfo`.
"""

from repro.api.engine import (
    Engine,
    SynthesisHandle,
    default_engine,
    reset_default_engine,
)
from repro.api.errors import EngineClosedError, RequestValidationError
from repro.api.request import (
    MODES,
    STRONG_MODES,
    SynthesisRequest,
    objective_from_dict,
    objective_to_dict,
    precondition_to_spec,
)
from repro.api.response import (
    ErrorInfo,
    SynthesisResponse,
    invariant_to_dict,
    response_from_result,
)

__all__ = [
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
