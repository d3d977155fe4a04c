"""The JSON wire protocol of the sweep service.

Everything the HTTP layer moves is already JSON-shaped elsewhere in the
package — :class:`~repro.core.experiment.SweepSpec` grids,
:class:`~repro.core.result.RunResult` payloads,
:class:`~repro.core.experiment.CellProgress` events — so this module is a
thin boundary: it parses untrusted request bodies into validated library
objects (raising :class:`ProtocolError`, which the server maps to ``400``)
and renders library objects back into plain dictionaries for responses.

Request shapes:

``POST /v1/run``::

    {"program": "TRFD", "arch": "dva@lanes=2", "latency": 50, "scale": 1.0}

``POST /v1/sweeps`` — the same shape :meth:`SweepResult.to_json` emits
under ``"spec"``, so a sweep result downloaded from one service can be
re-submitted to another verbatim.  Scalars are accepted where lists read
more naturally as strings (``"programs": "dyfesm,trfd"`` parses like the
CLI), and ``axes`` may be a mapping or a pair list::

    {"programs": ["dyfesm"], "latencies": [1, 50], "architectures": ["ref", "dva"],
     "scale": 1.0, "axes": {"lanes": [1, 2]}}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.common.errors import ReproError, WorkloadError
from repro.core.experiment import CellProgress, SweepSpec, _split_spec_list
from repro.core.result import RunResult
from repro.workloads.program_model import check_scale


class ProtocolError(ReproError):
    """A request payload is malformed (the server answers ``400``)."""


def _require_mapping(payload: object, what: str) -> Mapping[str, object]:
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"{what} must be a JSON object")
    return payload


def _reject_unknown(payload: Mapping[str, object], allowed: Sequence[str], what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ProtocolError(
            f"{what} has unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _string_tuple(value: object, what: str) -> Tuple[str, ...]:
    """A list of names, or a comma-separated string of them.

    A string splits the way the CLI splits ``--arch``, so an inline spec's
    ``@`` clause keeps its commas (``"ref,dva@lanes=2,ports=2"`` is two
    entries); program names hold no ``@`` and split on every comma.
    """
    if isinstance(value, str):
        return _split_spec_list(value)
    if isinstance(value, Sequence):
        if not all(isinstance(item, str) for item in value):
            raise ProtocolError(f"{what} entries must be strings")
        return tuple(value)
    raise ProtocolError(f"{what} must be a list of strings or a comma-separated string")


def _number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{what} must be a number")
    return float(value)


def _integer(value: object, what: str) -> int:
    """An integral JSON number; ``NaN`` and ``Infinity`` are not integers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{what} must be an integer")
    if isinstance(value, float):
        if not value.is_integer():
            raise ProtocolError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    return value


def _scale(value: object) -> float:
    try:
        return check_scale(_number(value, "'scale'"))
    except WorkloadError as exc:
        raise ProtocolError(str(exc)) from None


@dataclass(frozen=True)
class RunRequest:
    """One validated ``POST /v1/run`` body."""

    program: str
    architecture: str = "dva"
    latency: int = 1
    scale: float = 1.0


def parse_run_request(payload: object) -> RunRequest:
    """Validate a ``/v1/run`` body into a :class:`RunRequest`."""
    body = _require_mapping(payload, "run request")
    _reject_unknown(body, ("program", "arch", "architecture", "latency", "scale"), "run request")
    if "arch" in body and "architecture" in body:
        raise ProtocolError("run request gives both 'arch' and 'architecture'")
    program = body.get("program")
    if not isinstance(program, str) or not program.strip():
        raise ProtocolError("run request needs a non-empty 'program' string")
    architecture = body.get("arch", body.get("architecture", "dva"))
    if not isinstance(architecture, str) or not architecture.strip():
        raise ProtocolError("'arch' must be a non-empty string")
    return RunRequest(
        program=program.strip(),
        architecture=architecture.strip(),
        latency=_integer(body.get("latency", 1), "'latency'"),
        scale=_scale(body.get("scale", 1.0)),
    )


def parse_sweep_request(payload: object) -> SweepSpec:
    """Validate a ``/v1/sweeps`` body into a :class:`SweepSpec`.

    Grid-level validation (empty axes, negative latencies, malformed axis
    values) is :class:`SweepSpec`'s own job; its
    :class:`~repro.common.errors.ConfigurationError` is re-raised as a
    :class:`ProtocolError` so every bad request maps to ``400``.
    """
    body = _require_mapping(payload, "sweep request")
    _reject_unknown(
        body, ("programs", "latencies", "architectures", "scale", "axes"), "sweep request"
    )
    if "programs" not in body:
        raise ProtocolError("sweep request needs 'programs'")
    programs = _string_tuple(body["programs"], "'programs'")

    raw_latencies = body.get("latencies", ())
    if isinstance(raw_latencies, str):
        parts = [part.strip() for part in raw_latencies.split(",") if part.strip()]
        try:
            latencies: Tuple[int, ...] = tuple(int(part) for part in parts)
        except ValueError:
            raise ProtocolError(f"'latencies' must be integers, got {raw_latencies!r}") from None
    elif isinstance(raw_latencies, Sequence):
        latencies = tuple(_integer(item, "'latencies' entry") for item in raw_latencies)
    else:
        raise ProtocolError("'latencies' must be a list of integers or a comma-separated string")

    architectures = _string_tuple(body.get("architectures", "ref,dva"), "'architectures'")

    raw_axes = body.get("axes", ())
    axes: List[Tuple[str, Tuple[object, ...]]] = []
    if isinstance(raw_axes, Mapping):
        axis_items: Sequence[Tuple[object, object]] = list(raw_axes.items())
    elif isinstance(raw_axes, Sequence) and not isinstance(raw_axes, str):
        axis_items = []
        for pair in raw_axes:
            if not isinstance(pair, Sequence) or isinstance(pair, str) or len(pair) != 2:
                raise ProtocolError("'axes' pair entries must be [name, values] pairs")
            axis_items.append((pair[0], pair[1]))
    else:
        raise ProtocolError("'axes' must be a mapping or a list of [name, values] pairs")
    for name, values in axis_items:
        if not isinstance(name, str) or not name.strip():
            raise ProtocolError("axis names must be non-empty strings")
        if isinstance(values, (str, int, bool)):
            values = (values,)
        elif not isinstance(values, Sequence):
            raise ProtocolError(f"axis {name!r} values must be a list or a scalar")
        axes.append((name.strip(), tuple(values)))

    try:
        return SweepSpec(
            programs=programs,
            latencies=latencies,
            architectures=architectures,
            scale=_number(body.get("scale", 1.0), "'scale'"),
            axes=tuple(axes),
        )
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
    return {
        "done": event.done,
        "total": event.total,
        "cached": event.cached,
        "simulated": event.simulated,
        "program": event.program,
        "latency": event.latency,
        "architecture": event.architecture,
        "from_store": event.from_store,
    }


def error_payload(message: str, status: int) -> Dict[str, object]:
    """The uniform error body every non-2xx response carries."""
    return {"error": message, "status": status}


__all__ = [
    "ProtocolError",
    "RunRequest",
    "error_payload",
    "parse_run_request",
    "parse_sweep_request",
    "progress_payload",
    "result_payload",
]
