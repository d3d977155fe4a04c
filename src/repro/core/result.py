"""The architecture-independent run result.

Both simulators produce a :class:`~repro.engine.result.MachineResult`
subclass (:class:`~repro.refarch.result.ReferenceResult`,
:class:`~repro.dva.result.DecoupledResult`) full of interval recorders.  The
experiment layer needs none of that machinery — it needs numbers that
compare across architectures, travel through ``multiprocessing`` pickles and
land in JSON files unchanged.  :class:`RunResult` is that common
denominator: the full ``to_json()`` payload of the underlying result in
:attr:`detail`, whose first nine keys are :meth:`MachineResult.to_json`'s on
every family, with the shared headline metrics read off it as attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.common.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dva.result import DecoupledResult
    from repro.refarch.result import ReferenceResult


#: The headline counts every ``detail`` must hold as integers.
_COUNTS = (
    "latency",
    "total_cycles",
    "instructions",
    "memory_traffic_bytes",
    "scalar_cache_hits",
    "scalar_cache_misses",
)


def _view(key: str) -> property:
    return property(lambda self: self.detail[key])


@dataclass(frozen=True)
class RunResult:
    """The unified, JSON-serializable summary of one simulation run.

    Attributes:
        architecture: label of the machine that produced the run — a
            preset name (``"ref"``, ``"dva"``, ``"dva-nobypass"``) or the
            canonical spec string of any other machine (``"dva@lanes=2"``).
        detail: the underlying result's full ``to_json()`` payload —
            architecture-specific keys such as ``avdq_histogram`` (DVA) or
            ``category_cycles`` (REF) live here.  ``program`` and the
            :data:`_COUNTS` are read-only attributes viewing it; a
            ``detail`` without them as a string and integers is refused.
        spec: provenance of the machine that produced the run — the resolved
            :class:`~repro.core.machine.MachineSpec` as its ``to_json()``
            payload — or ``None`` for simulators not described by a spec.
        cached: ``True`` when this result was loaded from a
            :class:`~repro.store.ResultStore` rather than simulated in this
            run.  Provenance only — excluded from equality, so a cached
            result compares equal to the fresh simulation it was saved from.
        store_key: the result's content-addressed cache key (set whenever a
            store was consulted, on hits and fresh writes alike), or
            ``None`` when the run did not involve a store or the cell is
            not cacheable.  Also excluded from equality.
    """

    architecture: str
    detail: Dict[str, object]
    spec: Optional[Dict[str, object]] = None
    cached: bool = field(default=False, compare=False)
    store_key: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        detail = self.detail
        if not isinstance(detail.get("program"), str) or not all(
            isinstance(detail.get(key), int) for key in _COUNTS
        ):
            raise SimulationError("RunResult detail lacks its program or an integer count")

    program = _view("program")
    latency = _view("latency")
    total_cycles = _view("total_cycles")
    instructions = _view("instructions")
    memory_traffic_bytes = _view("memory_traffic_bytes")
    scalar_cache_hits = _view("scalar_cache_hits")
    scalar_cache_misses = _view("scalar_cache_misses")

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def from_reference(
        cls,
        result: ReferenceResult,
        architecture: str = "ref",
        spec: Optional[Dict[str, object]] = None,
    ) -> "RunResult":
        """Wrap a reference-architecture result."""
        return cls(architecture, result.to_json(), spec)

    @classmethod
    def from_decoupled(
        cls,
        result: DecoupledResult,
        architecture: str = "dva",
        spec: Optional[Dict[str, object]] = None,
    ) -> "RunResult":
        """Wrap a decoupled-architecture result."""
        return cls(architecture, result.to_json(), spec)

    # -- derived quantities -----------------------------------------------------------

    @property
    def cell_key(self) -> tuple:
        """The (program, latency, architecture) coordinate of this run."""
        return (self.program, self.latency, self.architecture)

    def speedup_over(self, baseline: "RunResult") -> float:
        """Execution-time speedup of this run relative to ``baseline``."""
        if baseline.program != self.program or baseline.latency != self.latency:
            raise SimulationError(
                f"speedup compares runs of the same cell; got {baseline.cell_key} "
                f"vs {self.cell_key}"
            )
        if self.total_cycles == 0:
            return 0.0
        return baseline.total_cycles / self.total_cycles

    def summary(self) -> Dict[str, object]:
        """The flat headline dictionary, tagged with the architecture name."""
        return {"architecture": self.architecture, **self.detail}

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """A dictionary that survives ``json.dumps``/``json.loads`` unchanged.

        Store provenance (``cached``, ``store_key``) is emitted only when a
        store was actually involved, so payloads from store-less runs are
        unchanged from earlier releases.
        """
        payload: Dict[str, object] = {
            "architecture": self.architecture,
            "detail": dict(self.detail),
        }
        if self.spec is not None:
            payload["spec"] = dict(self.spec)
        if self.cached or self.store_key is not None:
            payload["provenance"] = {
                "cached": self.cached,
                "store_key": self.store_key,
            }
        return payload

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "RunResult":
        """Rebuild a :class:`RunResult` from :meth:`to_json` output."""
        detail = data["detail"]
        if not isinstance(detail, Mapping):
            raise SimulationError("RunResult JSON payload lacks a 'detail' mapping")
        spec = data.get("spec")
        provenance = data.get("provenance")
        provenance = provenance if isinstance(provenance, Mapping) else {}
        key = provenance.get("store_key")
        return cls(
            str(data["architecture"]),
            dict(detail),
            dict(spec) if isinstance(spec, Mapping) else None,
            cached=bool(provenance.get("cached", False)),
            store_key=str(key) if key is not None else None,
        )
