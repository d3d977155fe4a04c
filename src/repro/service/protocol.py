"""The JSON wire protocol of the sweep service.

Everything the HTTP layer moves is already JSON-shaped elsewhere in the
package, so this module is a thin boundary: it reads a ``/v1/run`` body into
the one-cell :class:`~repro.core.experiment.SweepSpec` it names, so the cell
is validated, planned and keyed exactly like a cell of a sweep::

    {"program": "TRFD", "arch": "dva@lanes=2", "latency": 50, "scale": 1.0}

and renders results and errors into plain dictionaries.  A bad body raises
:class:`~repro.common.errors.ConfigurationError`, which the server answers
with ``400`` and its message.  A ``/v1/sweeps`` body is read by
:meth:`SweepSpec.from_json` itself: the shape :meth:`SweepResult.to_json`
emits under ``"spec"``, so a downloaded sweep re-submits verbatim::

    {"programs": ["dyfesm"], "latencies": [1, 50], "architectures": ["ref", "dva"],
     "scale": 1.0, "axes": {"lanes": [1, 2]}}
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.common.errors import ConfigurationError
from repro.core.experiment import SweepSpec
from repro.core.result import RunResult


_RUN_FIELDS = ("program", "arch", "architecture", "latency", "scale")


def parse_run_request(payload: object) -> SweepSpec:
    """Validate a ``/v1/run`` body into the one-cell :class:`SweepSpec` it names.

    ``arch`` (alias ``architecture``) defaults to ``"dva"``, ``latency`` to
    1 and ``scale`` to 1.0.  Only the body's shape is checked here: the
    cell's fields become the sweep request's one-entry lists, so every value
    is read by the same code as a sweep's.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError("run request must be a JSON object")
    unknown = sorted(set(payload) - set(_RUN_FIELDS))
    if unknown:
        raise ConfigurationError(
            f"run request has unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(_RUN_FIELDS))}"
        )
    if "arch" in payload and "architecture" in payload:
        raise ConfigurationError("run request gives both 'arch' and 'architecture'")
    if "program" not in payload:
        raise ConfigurationError("run request needs 'program'")
    return SweepSpec.from_json(
        {
            "programs": [payload["program"]],
            "latencies": [payload.get("latency", 1)],
            "architectures": [payload.get("arch", payload.get("architecture", "dva"))],
            "scale": payload.get("scale", 1.0),
        }
    )


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


def error_payload(message: str, status: int) -> Dict[str, object]:
    """The uniform error body every non-2xx response carries."""
    return {"error": message, "status": status}


__all__ = ["error_payload", "parse_run_request", "result_payload"]
