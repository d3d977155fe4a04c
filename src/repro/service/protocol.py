"""The JSON wire protocol of the sweep service.

Everything the HTTP layer moves is already JSON-shaped elsewhere in the
package — :class:`~repro.core.experiment.SweepSpec` grids,
:class:`~repro.core.result.RunResult` payloads,
:class:`~repro.core.experiment.CellProgress` events — so this module is a
thin boundary: it parses untrusted request bodies into validated library
objects (raising :class:`ProtocolError`, which the server maps to ``400``)
and renders library objects back into plain dictionaries for responses.

Request shapes:

``POST /v1/run`` — one cell, read as the one-cell sweep it names, so it
is validated, planned and keyed exactly like a cell of a sweep::

    {"program": "TRFD", "arch": "dva@lanes=2", "latency": 50, "scale": 1.0}

``POST /v1/sweeps`` — the same shape :meth:`SweepResult.to_json` emits
under ``"spec"``, so a sweep result downloaded from one service can be
re-submitted to another verbatim.  :meth:`SweepSpec.from_json` checks only
the body's shape; the :class:`SweepSpec` constructor reads every value, by
the same rules as code and the CLI: a list field may be a comma-separated
string (``"programs": "dyfesm,trfd"``, ``"latencies": "1,50"``), and
``axes`` may be a mapping or a pair list whose values may be a scalar, a
list or a comma-separated string::

    {"programs": ["dyfesm"], "latencies": [1, 50], "architectures": ["ref", "dva"],
     "scale": 1.0, "axes": {"lanes": [1, 2]}}
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Mapping

from repro.common.errors import ReproError
from repro.core.experiment import CellProgress, SweepSpec
from repro.core.result import RunResult


class ProtocolError(ReproError):
    """A request payload is malformed (the server answers ``400``)."""


_RUN_FIELDS = ("program", "arch", "architecture", "latency", "scale")


def parse_run_request(payload: object) -> SweepSpec:
    """Validate a ``/v1/run`` body into the one-cell :class:`SweepSpec` it names.

    ``arch`` (alias ``architecture``) defaults to ``"dva"``, ``latency`` to
    1 and ``scale`` to 1.0.  Only the body's shape is checked here: the
    cell's fields become the sweep request's one-entry lists, so every value
    is read by the same code as a sweep's.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError("run request must be a JSON object")
    unknown = sorted(set(payload) - set(_RUN_FIELDS))
    if unknown:
        raise ProtocolError(
            f"run request has unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(_RUN_FIELDS))}"
        )
    if "arch" in payload and "architecture" in payload:
        raise ProtocolError("run request gives both 'arch' and 'architecture'")
    if "program" not in payload:
        raise ProtocolError("run request needs 'program'")
    return parse_sweep_request(
        {
            "programs": [payload["program"]],
            "latencies": [payload.get("latency", 1)],
            "architectures": [payload.get("arch", payload.get("architecture", "dva"))],
            "scale": payload.get("scale", 1.0),
        }
    )


def parse_sweep_request(payload: object) -> SweepSpec:
    """Validate a ``/v1/sweeps`` body into a :class:`SweepSpec`.

    :meth:`SweepSpec.from_json` does the reading and the grid-level checks;
    its :class:`~repro.common.errors.ConfigurationError` is re-raised as a
    :class:`ProtocolError` so every bad request maps to ``400``.
    """
    try:
        return SweepSpec.from_json(payload)
    except ReproError as exc:
        raise ProtocolError(str(exc)) from exc


def result_payload(result: RunResult) -> Dict[str, object]:
    """One cell result as response JSON: headline fields + full detail."""
    return {
        "program": result.program,
        "architecture": result.architecture,
        "latency": result.latency,
        "total_cycles": result.total_cycles,
        "instructions": result.instructions,
        "cached": result.cached,
        "store_key": result.store_key,
        "summary": result.summary(),
    }


def progress_payload(event: CellProgress) -> Dict[str, object]:
    """One sweep progress event as an SSE ``data:`` JSON payload."""
    return asdict(event)


def error_payload(message: str, status: int) -> Dict[str, object]:
    """The uniform error body every non-2xx response carries."""
    return {"error": message, "status": status}


__all__ = [
    "ProtocolError",
    "error_payload",
    "parse_run_request",
    "parse_sweep_request",
    "progress_payload",
    "result_payload",
]
