"""The address processor's memory pipeline.

This module models everything that sits between the address processor and
main memory in the decoupled architecture (paper §4.2):

* the pipelined memory port (a :class:`~repro.engine.MemoryFabric` port pool,
  one unit in the paper's machine) with its shared address bus,
* the two-step store mechanism: store addresses wait in the VSAQ/SSAQ until
  the matching data arrives (a vector store's in the VADQ), after which the
  store is performed "behind the back" of the AP; a scalar store's data
  waits beside its SSAQ entry, so the SDQ is modelled as at least as deep as
  the SSAQ and never fills first,
* dynamic memory disambiguation: a load is checked against every queued
  store; on a conflict the store queues drain up to the youngest offending
  store before the load may access memory,
* the store→load bypass (§7): a load identical to a queued vector store is
  serviced by copying the data from the VADQ into the AVDQ in VL cycles,
  without using the memory port and without paying memory latency,
* the scalar cache that filters scalar references away from the port (wired
  inside the fabric, shared with the reference machine's wiring).

The interface speaks the columnar trace's language: every reference is
described by the scalars the simulator already holds in locals (base
address, vector length, stride, the indexed flag) plus an opaque ``key``
identifying the dynamic record, so no record objects flow through the
pipeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Optional

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder
from repro.dva.queues import TimedQueue
from repro.engine import (
    BUS_CYCLES_PER_ELEMENT,
    MemoryFabric,
    occupancy_cycles,
    vector_bus_cycles,
)
from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.memory.ranges import MemoryRange, access_range
from repro.memory.scalar_cache import ScalarCache

if TYPE_CHECKING:
    from repro.core.machine import MachineSpec


@dataclass(slots=True)
class PendingStore:
    """A store whose address sits in a store queue awaiting its data.

    The store is described entirely by scalars captured at enqueue time:
    ``key`` identifies the dynamic record (its trace position), ``length`` is
    the *effective* vector length (1 for scalar stores) and ``bus_cycles`` /
    ``traffic_bytes`` are the port occupancy and memory traffic the store
    will cost when it drains.
    """

    key: int
    base: int
    length: int
    stride_elements: int
    indexed: bool
    memory_range: MemoryRange
    is_vector: bool
    bus_cycles: int
    traffic_bytes: int
    address_ready: int
    data_ready: Optional[int] = None

    @property
    def ready(self) -> int:
        """Cycle at which both address and data are available."""
        if self.data_ready is None:
            raise SimulationError(
                f"store #{self.key} has no data yet; the producing QMOV must "
                f"be simulated before the store can be performed"
            )
        return max(self.address_ready, self.data_ready)


@dataclass(slots=True)
class VectorLoadOutcome:
    """How one vector load was serviced."""

    start: int
    data_ready: int
    bypassed: bool


class MemoryPipeline:
    """Port, store queues, disambiguation and bypass of the decoupled AP.

    The spec supplies the queue depths, the bypass switch, the port count
    and the scalar-cache geometry.  The VSAQ is as deep as the VADQ: the
    paper treats the store queue length as a single parameter (§5).

    :attr:`pending_stores` holds the queued stores that have not drained,
    oldest first; a store leaves it when it is performed.
    """

    def __init__(self, spec: "MachineSpec", latency: int) -> None:
        self.bypass_enabled = spec.bypass
        self.fabric = MemoryFabric(spec, latency)

        self.vsaq = TimedQueue("VSAQ", spec.vector_store_data)
        self.ssaq = TimedQueue("SSAQ", spec.scalar_store_address)
        self.vadq = TimedQueue("VADQ", spec.vector_store_data)

        #: Next-free cycle of the bypass unit.
        self.bypass_free = 0

        self.pending_stores: Deque[PendingStore] = deque()

        self.bypassed_loads = 0
        self.bypassed_bytes = 0
        self.disambiguation_stalls = 0

    # -- fabric views ------------------------------------------------------------------

    @property
    def cache(self) -> ScalarCache:
        return self.fabric.cache

    @property
    def port(self) -> IntervalRecorder:
        return self.fabric.port_recorder()

    @property
    def port_quiet(self) -> int:
        """Cycle at which every port has finished its last reference.

        Identical to the earliest free port on a single-port machine; on a
        multi-port machine the wind-down must wait for the *slowest* port,
        not the first free one.
        """
        return self.fabric.port_quiet()

    @property
    def traffic_bytes(self) -> int:
        return self.fabric.traffic_bytes

    # -- store bookkeeping -------------------------------------------------------------

    def enqueue_vector_store(
        self,
        key: int,
        base: int,
        vector_length: int,
        stride_elements: int,
        indexed: bool,
        requested: int,
    ) -> int:
        """Put a vector store's address into the VSAQ; return the push cycle."""
        self._make_room(self.vsaq)
        push_time = self.vsaq.push(requested)
        bus_cycles = vector_bus_cycles(vector_length)
        self.pending_stores.append(
            PendingStore(
                key=key,
                base=base,
                length=vector_length,
                stride_elements=stride_elements,
                indexed=indexed,
                memory_range=access_range(
                    base, vector_length, stride_elements, indexed=indexed
                ),
                is_vector=True,
                bus_cycles=bus_cycles,
                traffic_bytes=vector_length * ELEMENT_SIZE_BYTES,
                address_ready=push_time + 1,
            )
        )
        return push_time

    def enqueue_scalar_store(self, key: int, base: int, requested: int) -> int:
        """Put a scalar store's address into the SSAQ; return the push cycle."""
        self._make_room(self.ssaq)
        push_time = self.ssaq.push(requested)
        self.pending_stores.append(
            PendingStore(
                key=key,
                base=base,
                length=1,
                stride_elements=1,
                indexed=False,
                memory_range=MemoryRange(base, base + ELEMENT_SIZE_BYTES),
                is_vector=False,
                bus_cycles=BUS_CYCLES_PER_ELEMENT,
                traffic_bytes=ELEMENT_SIZE_BYTES,
                address_ready=push_time + 1,
            )
        )
        return push_time

    def reserve_vector_store_data_slot(self, requested: int) -> int:
        """Reserve a VADQ slot for a QMOV (forcing a drain when the queue is full)."""
        self._make_room(self.vadq)
        return self.vadq.earliest_push(requested)

    def attach_vector_store_data(self, key: int, push_time: int, data_ready: int) -> None:
        """Record that the VP has moved store ``key``'s data into the VADQ."""
        self.vadq.push(push_time)
        self._find_pending(key).data_ready = data_ready

    def attach_scalar_store_data(self, key: int, data_ready: int) -> None:
        """Record that the SP has produced store ``key``'s data at ``data_ready``."""
        self._find_pending(key).data_ready = data_ready

    def _find_pending(self, key: int) -> PendingStore:
        for store in reversed(self.pending_stores):
            if store.key == key:
                return store
        raise SimulationError(f"no pending store found for record #{key}")

    def _make_room(self, queue: TimedQueue) -> None:
        """Force-drain old stores until ``queue`` has a free slot."""
        while queue.outstanding >= queue.capacity:
            if not self.pending_stores:
                raise SimulationError(
                    f"queue {queue.name!r} is full but there is nothing left to drain"
                )
            self._drain_oldest()

    # -- load servicing -----------------------------------------------------------------

    def issue_vector_load(
        self,
        base: int,
        vector_length: int,
        stride_elements: int,
        indexed: bool,
        requested: int,
    ) -> VectorLoadOutcome:
        """Service a vector load: bypass it or send it to main memory.

        ``requested`` is the cycle at which the AP has the load ready to go
        (operands available, AVDQ slot reservable).  The returned outcome
        gives the cycle the load started and the cycle its last element is
        available in the AVDQ.
        """
        load_range = access_range(base, vector_length, stride_elements, indexed=indexed)
        conflicts = self._conflict_depth(load_range)

        if conflicts and self.bypass_enabled:
            candidate = self.pending_stores[conflicts - 1]
            # The bypass requires the load to read exactly what the queued
            # store will write: same base, stride and length, both strided
            # vector accesses (paper §7).
            if (
                candidate.is_vector
                and not indexed
                and not candidate.indexed
                and base == candidate.base
                and stride_elements == candidate.stride_elements
                and vector_length == candidate.length
            ):
                return self._bypass_load(vector_length, requested, candidate)

        if conflicts:
            requested = max(requested, self._drain_through(conflicts))
            self.disambiguation_stalls += 1

        return self._memory_load(vector_length, requested)

    def issue_scalar_load(self, base: int, requested: int) -> int:
        """Service a scalar load through the cache; return its data-ready cycle."""
        load_range = MemoryRange(base, base + ELEMENT_SIZE_BYTES)
        conflicts = self._conflict_depth(load_range)
        if conflicts:
            requested = max(requested, self._drain_through(conflicts))
            self.disambiguation_stalls += 1

        if self.fabric.cache.access(base):
            return self.fabric.scalar_load_ready(True, requested)

        self._drain_ready_stores(requested)
        bus_start, _bus_end = self.fabric.occupy_bus(
            requested, BUS_CYCLES_PER_ELEMENT, ELEMENT_SIZE_BYTES
        )
        return self.fabric.scalar_load_ready(False, bus_start)

    def _bypass_load(
        self, vector_length: int, requested: int, store: PendingStore
    ) -> VectorLoadOutcome:
        start = max(requested, store.ready, self.bypass_free)
        end = start + occupancy_cycles(vector_length, 1)
        self.bypass_free = end
        self.bypassed_loads += 1
        self.bypassed_bytes += vector_length * ELEMENT_SIZE_BYTES
        return VectorLoadOutcome(start=start, data_ready=end, bypassed=True)

    def _memory_load(self, vector_length: int, requested: int) -> VectorLoadOutcome:
        self._drain_ready_stores(requested)
        bus_cycles = vector_bus_cycles(vector_length)
        bus_start, _bus_end = self.fabric.occupy_bus(
            requested, bus_cycles, vector_length * ELEMENT_SIZE_BYTES
        )
        data_ready = self.fabric.vector_load_ready(bus_start, bus_cycles)
        return VectorLoadOutcome(start=bus_start, data_ready=data_ready, bypassed=False)

    # -- disambiguation and draining ------------------------------------------------------

    def _conflict_depth(self, load_range: MemoryRange) -> int:
        """Queued stores up to the youngest one overlapping ``load_range`` (0: none).

        Counted from the oldest, so the youngest conflict is
        ``pending_stores[depth - 1]`` and draining ``depth`` stores clears it.
        """
        depth = len(self.pending_stores)
        for store in reversed(self.pending_stores):
            if store.memory_range.overlaps(load_range):
                return depth
            depth -= 1
        return 0

    def _drain_through(self, depth: int) -> int:
        """Perform the ``depth`` oldest queued stores; return the last one's end."""
        finish = 0
        for _ in range(depth):
            finish = self._drain_oldest()
        return finish

    def _drain_ready_stores(self, candidate_start: int) -> None:
        """Let stores that are already waiting use the port before a later load.

        Stores are performed behind the AP's back whenever both their address
        and data are present; when such a store would be ready no later than
        the load that is currently asking for the port, it goes first (stores
        among themselves always retire in program order).
        """
        port_free = self.fabric.ports.free
        while self.pending_stores:
            store = self.pending_stores[0]
            if store.data_ready is None:
                break
            earliest = min(port_free)
            if max(earliest, store.ready) > max(earliest, candidate_start):
                break
            self._drain_oldest()

    def _drain_oldest(self) -> int:
        """Perform the oldest queued store; return the cycle it leaves the queues."""
        store = self.pending_stores[0]
        ready = store.ready
        self.pending_stores.popleft()
        if not store.is_vector:
            return self._perform_scalar_store(store, ready)
        _bus_start, bus_end = self.fabric.occupy_bus(
            ready, store.bus_cycles, store.traffic_bytes
        )
        self.vsaq.pop(bus_end)
        self.vadq.pop(bus_end)
        return bus_end

    def _perform_scalar_store(self, store: PendingStore, ready: int) -> int:
        # A hit is absorbed by the cache; only a miss uses the port.
        if self.fabric.cache.access(store.base):
            end = ready + 1
        else:
            _bus_start, end = self.fabric.occupy_bus(
                ready, store.bus_cycles, store.traffic_bytes
            )
        self.ssaq.pop(end)
        return end

    # -- fast-forward ----------------------------------------------------------------------

    def relative(self, origin: int, fetch: int, address: int, row: int) -> tuple:
        """The pipeline's state relative to ``origin`` (a fast-forward fingerprint).

        ``fetch`` is the floor of every request into the store queues and
        ``address`` that of every bypass request; a store's key is relative
        to the mark's ``row``.  Queued stores must match exactly.
        """
        bypass_free = self.bypass_free
        return (
            self.fabric.relative(origin),
            None if bypass_free < address else bypass_free - origin,
            self.vsaq.relative(origin, fetch),
            self.ssaq.relative(origin, fetch),
            self.vadq.relative(origin, fetch),
            tuple(
                (
                    store.key - row,
                    store.base,
                    store.length,
                    store.stride_elements,
                    store.indexed,
                    store.is_vector,
                    store.address_ready - origin,
                    None if store.data_ready is None else store.data_ready - origin,
                )
                for store in self.pending_stores
            ),
        )

    def shift(self, cycles: int, rows: int) -> None:
        """Move every timestamp ``cycles`` later and every store key ``rows`` on."""
        self.fabric.ports.shift(cycles)
        self.bypass_free += cycles
        for queue in (self.vsaq, self.ssaq, self.vadq):
            queue.shift(cycles)
        for store in self.pending_stores:
            store.key += rows
            store.address_ready += cycles
            if store.data_ready is not None:
                store.data_ready += cycles

    # -- wind-down -------------------------------------------------------------------------

    def drain_all(self) -> int:
        """Perform every store still sitting in the queues; return the last cycle."""
        finish = self.port_quiet
        while self.pending_stores:
            finish = max(finish, self._drain_oldest())
        return finish
