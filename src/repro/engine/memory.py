"""The engine-level memory interface.

Everything a simulated machine's issue rules need from the memory system sits
behind :class:`MemoryFabric`: the (possibly multi-unit) memory-port pool, the
scalar cache that filters scalar references away from the port, and traffic
accounting.  The seed simulators wired :class:`~repro.memory.model.MemoryModel`
and :class:`~repro.memory.scalar_cache.ScalarCache` together differently in
``refarch`` and in the DVA's :class:`~repro.dva.address.MemoryPipeline`; both
now share this one wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder
from repro.engine.resources import ResourcePool
from repro.memory.model import MemoryModel
from repro.memory.scalar_cache import ScalarCache, ScalarCacheConfig
from repro.trace.record import DynamicInstruction


@dataclass(frozen=True)
class ScalarAccess:
    """Outcome of presenting one scalar reference to the cache."""

    hit: bool
    uses_port: bool


class MemoryFabric:
    """Port pool, scalar cache and traffic accounting for one machine.

    ``ports`` widens the memory port: every bus occupation picks the
    least-loaded port unit, so a dual-port machine is a constructor argument
    rather than a simulator fork.  With one port the timing degenerates to the
    seed's single ``port_free`` integer exactly.
    """

    def __init__(
        self,
        memory: MemoryModel,
        cache_config: Optional[ScalarCacheConfig] = None,
        ports: int = 1,
        scalar_store_writes_through: bool = False,
    ) -> None:
        self.memory = memory
        self.cache = ScalarCache(cache_config)
        self.ports = ResourcePool("LD", ports)
        self.scalar_store_writes_through = scalar_store_writes_through
        self.traffic_bytes = 0

    @property
    def latency(self) -> int:
        return self.memory.latency

    def port_free(self) -> int:
        """Earliest cycle at which some port unit is free."""
        return self.ports.earliest_free()

    def port_quiet(self) -> int:
        """Cycle at which every port unit has finished (wind-down accounting)."""
        return self.ports.latest_free()

    def port_recorder(self) -> IntervalRecorder:
        """Busy intervals of the port ("any unit busy" when multi-port)."""
        return self.ports.combined_recorder()

    # -- scalar cache ------------------------------------------------------------------

    def scalar_access_at(self, address: int, is_store: bool) -> ScalarAccess:
        """Present one scalar reference to the cache; decide port usage.

        Loads use the port only on a miss.  Stores additionally use it on a
        hit when the machine writes through (both seed machines shared this
        policy, each with its own copy of the code).
        """
        hit = self.cache.access(address)
        uses_port = not hit
        if is_store and self.scalar_store_writes_through:
            uses_port = True
        return ScalarAccess(hit=hit, uses_port=uses_port)

    def scalar_access(self, record: DynamicInstruction) -> ScalarAccess:
        """Record-object form of :meth:`scalar_access_at`."""
        if record.base_address is None:
            raise SimulationError(f"scalar memory access without address: {record}")
        return self.scalar_access_at(record.base_address, record.instruction.is_store)

    def scalar_load_ready(self, access: ScalarAccess, start: int) -> int:
        """Cycle a scalar load's value arrives, given its bus/issue start."""
        if access.hit:
            return start + self.cache.config.hit_latency
        return start + 1 + self.memory.latency

    # -- bus occupation ----------------------------------------------------------------

    def occupy_bus(self, earliest: int, cycles: int, traffic: int) -> Tuple[int, int]:
        """Drive one reference over a port for ``cycles``; return ``(start, end)``.

        This is the hot-loop primitive: the caller supplies the bus occupancy
        and the bytes moved (both derived from trace columns), the fabric
        picks the least-loaded port unit and accounts the traffic.
        """
        start, _unit = self.ports.acquire(earliest, cycles)
        self.traffic_bytes += traffic
        return start, start + cycles

    def occupy_scalar_bus(
        self, earliest: int, record: DynamicInstruction
    ) -> Tuple[int, int]:
        """Drive one scalar reference over a port; return ``(start, end)``."""
        return self.occupy_bus(
            earliest,
            self.memory.timings.scalar_bus_cycles,
            self.memory.traffic_bytes(record),
        )
