"""The architecture-independent run result.

Both simulators produce a :class:`~repro.engine.result.MachineResult`
subclass (:class:`~repro.refarch.result.ReferenceResult`,
:class:`~repro.dva.result.DecoupledResult`) full of interval recorders.  The
experiment layer needs none of that machinery — it needs numbers that
compare across architectures, travel through ``multiprocessing`` pickles and
land in JSON files unchanged.  :class:`RunResult` is that common
denominator: the shared headline metrics as first-class fields plus the full
``to_json()`` payload of the underlying result in :attr:`detail`, whose
first nine keys are :meth:`MachineResult.to_json`'s on every family.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional

from repro.common.errors import SimulationError
from repro.dva.result import DecoupledResult
from repro.refarch.result import ReferenceResult


@dataclass(frozen=True)
class RunResult:
    """The unified, JSON-serializable summary of one simulation run.

    Attributes:
        architecture: registry name of the architecture that produced the run
            (``"ref"``, ``"dva"``, ``"dva-nobypass"``, or a registered
            extension).
        program: name of the traced program.
        latency: memory latency the run was simulated at.
        total_cycles: execution time in cycles.
        instructions: dynamic instructions simulated.
        memory_traffic_bytes: bytes moved over the memory port.
        scalar_cache_hits / scalar_cache_misses: scalar-cache behaviour.
        detail: the underlying result's full ``to_json()`` payload —
            architecture-specific keys such as ``avdq_histogram`` (DVA) or
            ``category_cycles`` (REF) live here.
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
    program: str
    latency: int
    total_cycles: int
    instructions: int
    memory_traffic_bytes: int = 0
    scalar_cache_hits: int = 0
    scalar_cache_misses: int = 0
    detail: Dict[str, object] = field(default_factory=dict)
    spec: Optional[Dict[str, object]] = None
    cached: bool = field(default=False, compare=False)
    store_key: Optional[str] = field(default=None, compare=False)

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def from_reference(
        cls,
        result: ReferenceResult,
        architecture: str = "ref",
        spec: Optional[Dict[str, object]] = None,
    ) -> "RunResult":
        """Wrap a reference-architecture result."""
        return cls._from_detail(architecture, result.to_json(), spec=spec)

    @classmethod
    def from_decoupled(
        cls,
        result: DecoupledResult,
        architecture: str = "dva",
        spec: Optional[Dict[str, object]] = None,
    ) -> "RunResult":
        """Wrap a decoupled-architecture result."""
        return cls._from_detail(architecture, result.to_json(), spec=spec)

    @classmethod
    def _from_detail(
        cls,
        architecture: str,
        detail: Dict[str, object],
        spec: Optional[Dict[str, object]] = None,
    ) -> "RunResult":
        return cls(
            architecture=architecture,
            program=str(detail["program"]),
            latency=int(detail["latency"]),  # type: ignore[arg-type]
            total_cycles=int(detail["total_cycles"]),  # type: ignore[arg-type]
            instructions=int(detail["instructions"]),  # type: ignore[arg-type]
            memory_traffic_bytes=int(detail["memory_traffic_bytes"]),  # type: ignore[arg-type]
            scalar_cache_hits=int(detail["scalar_cache_hits"]),  # type: ignore[arg-type]
            scalar_cache_misses=int(detail["scalar_cache_misses"]),  # type: ignore[arg-type]
            detail=detail,
            spec=spec,
        )

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
        result = cls._from_detail(
            str(data["architecture"]),
            dict(detail),
            spec=dict(spec) if isinstance(spec, Mapping) else None,
        )
        provenance = data.get("provenance")
        if isinstance(provenance, Mapping):
            key = provenance.get("store_key")
            result = replace(
                result,
                cached=bool(provenance.get("cached", False)),
                store_key=str(key) if key is not None else None,
            )
        return result
