"""The engine-level memory interface.

Everything a simulated machine's issue rules need from the memory system sits
behind :class:`MemoryFabric`: the (possibly multi-unit) memory port, the
scalar cache that filters scalar references away from the port, and traffic
accounting.  The reference machine and the DVA's
:class:`~repro.dva.address.MemoryPipeline` share this one wiring.

The memory timing is fixed arithmetic over the cell's latency (paper §2.1,
§4.2): the port is pipelined, so a vector reference of VL elements holds the
address bus for :func:`vector_bus_cycles` cycles and a scalar reference for
``BUS_CYCLES_PER_ELEMENT``; a vector load's last element arrives at
:meth:`MemoryFabric.vector_load_ready`; stores never expose latency.  The
constants below are fixed values of the paper's machine, not options:
editing one changes simulated cycles and so must bump
:data:`~repro.engine.TIMING_MODEL_VERSION`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.common.intervals import IntervalRecorder
from repro.memory.scalar_cache import ScalarCache

if TYPE_CHECKING:
    from repro.core.machine import MachineSpec

#: Address-bus cycles per element of a memory reference; a scalar reference
#: is one element (paper §4.2).
BUS_CYCLES_PER_ELEMENT = 1

#: Cycles a scalar-cache hit takes to return its value (paper §4.2).
CACHE_HIT_LATENCY = 1


def vector_bus_cycles(vector_length: int) -> int:
    """Address-bus cycles of a vector reference: ``max(VL, 1)`` elements' worth.

    A zero-length vector reference still issues and holds the bus for one
    element's slot.
    """
    return (vector_length if vector_length > 1 else 1) * BUS_CYCLES_PER_ELEMENT


class MemoryFabric:
    """Memory ports, scalar cache and traffic accounting for one machine.

    The spec's ``memory_ports`` widens the memory port: every bus occupation
    picks the least-loaded port unit, so with one port the timing is a
    single next-free cycle.  :attr:`port_free` holds each unit's next-free
    cycle and :attr:`port_busy` its busy intervals.  The scalar cache takes
    the spec's geometry; scalar references use the port exactly when they
    miss — store hits are absorbed by the cache (no write-through), which is
    how the paper can count the cache as a resource separate from the port
    (§5).
    """

    def __init__(self, spec: "MachineSpec", latency: int) -> None:
        self.latency = latency
        self.cache = ScalarCache(spec.cache_line_bytes, spec.cache_lines)
        ports = spec.memory_ports
        names = ["LD"] if ports == 1 else [f"LD{unit}" for unit in range(ports)]
        self.port_free: List[int] = [0] * ports
        self.port_busy: List[IntervalRecorder] = [IntervalRecorder(name) for name in names]
        self.traffic_bytes = 0

    def relative(self, origin: int) -> tuple:
        """Port free times relative to ``origin`` and the cache tags.

        Part of a fast-forward fingerprint.  The port pick compares the free
        times, so they must all shift; the cache must hold the same lines.
        """
        return tuple(free - origin for free in self.port_free), dict(self.cache.tags)

    def shift(self, cycles: int) -> None:
        """Move every port's free time ``cycles`` later."""
        self.port_free[:] = [free + cycles for free in self.port_free]

    def port_quiet(self) -> int:
        """Cycle at which every port unit has finished (wind-down accounting).

        On a multi-port machine the wind-down must wait for the *slowest*
        port, not the first free one.
        """
        return max(self.port_free)

    def port_recorder(self) -> IntervalRecorder:
        """Busy intervals of the port ("any unit busy" when multi-port).

        With one port this is the port's own recorder.
        """
        if len(self.port_busy) == 1:
            return self.port_busy[0]
        combined = IntervalRecorder("LD")
        for recorder in self.port_busy:
            combined.extend(recorder)
        return combined

    def scalar_load_ready(self, hit: bool, start: int) -> int:
        """Cycle a scalar load's value arrives, given its cache outcome and start."""
        if hit:
            return start + CACHE_HIT_LATENCY
        return start + BUS_CYCLES_PER_ELEMENT + self.latency

    def vector_load_ready(self, start: int, bus_cycles: int) -> int:
        """Cycle a vector load's last element arrives, given its bus start.

        The port is pipelined: the first element arrives ``latency`` cycles
        after the bus start, the last one ``bus_cycles`` later.
        """
        return start + self.latency + bus_cycles

    def occupy_bus(self, earliest: int, cycles: int, traffic: int) -> Tuple[int, int]:
        """Drive one reference over a port for ``cycles``; return ``(start, end)``.

        The caller supplies the bus occupancy (at least one cycle) and the
        bytes moved, both derived from trace columns; the fabric picks the
        least-loaded port unit (the first one winning ties) and accounts the
        traffic.  A unit can be taken again on the cycle it frees.
        """
        free = self.port_free
        unit = free.index(min(free))
        start = free[unit]
        if earliest > start:
            start = earliest
        end = free[unit] = start + cycles
        recorder = self.port_busy[unit]
        recorder.starts.append(start)
        recorder.ends.append(end)
        self.traffic_bytes += traffic
        return start, end
