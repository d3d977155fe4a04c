"""The address processor's memory pipeline.

This module models everything that sits between the address processor and
main memory in the decoupled architecture (paper §4.2):

* the pipelined memory port (a :class:`~repro.engine.MemoryFabric` port pool,
  one unit in the paper's machine) with its shared address bus,
* the two-step store mechanism: store addresses wait in the VSAQ/SSAQ until
  the matching data arrives in the VADQ/SADQ, after which the store is
  performed "behind the back" of the AP,
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

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder
from repro.dva.config import DecoupledConfig
from repro.dva.queues import TimedQueue
from repro.engine import MemoryFabric, ResourcePool
from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.memory.model import MemoryModel
from repro.memory.ranges import MemoryRange, access_range
from repro.memory.scalar_cache import ScalarCache


@dataclass
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
    address_queue_index: int
    address_ready: int
    data_queue_index: Optional[int] = None
    data_ready: Optional[int] = None
    drained: bool = False
    drain_end: int = 0
    bypassed_to_loads: int = 0

    @property
    def ready(self) -> int:
        """Cycle at which both address and data are available."""
        if self.data_ready is None:
            raise SimulationError(
                f"store #{self.key} has no data yet; the producing QMOV must "
                f"be simulated before the store can be performed"
            )
        return max(self.address_ready, self.data_ready)


@dataclass
class VectorLoadOutcome:
    """How one vector load was serviced."""

    start: int
    data_ready: int
    bypassed: bool


class MemoryPipeline:
    """Port, store queues, disambiguation and bypass of the decoupled AP."""

    def __init__(self, memory: MemoryModel, config: DecoupledConfig) -> None:
        self.memory = memory
        self.config = config
        self.fabric = MemoryFabric(
            memory,
            config.scalar_cache,
            ports=config.memory_ports,
            scalar_store_writes_through=config.scalar_store_writes_through,
        )

        queues = config.queues
        self.vsaq = TimedQueue("VSAQ", queues.effective_vector_store_address)
        self.ssaq = TimedQueue("SSAQ", queues.scalar_store_address)
        self.vadq = TimedQueue("VADQ", queues.vector_store_data)
        self.sadq = TimedQueue("SADQ", queues.scalar_data)
        self.avdq = TimedQueue("AVDQ", queues.vector_load_data)
        self.asdq = TimedQueue("ASDQ", queues.scalar_data)

        self.bypass = ResourcePool("BYPASS")

        self.pending_stores: List[PendingStore] = []
        self._next_undrained = 0

        self.bypassed_loads = 0
        self.bypassed_bytes = 0
        self.disambiguation_stalls = 0
        self.forced_drains = 0

    # -- fabric views ------------------------------------------------------------------

    @property
    def cache(self) -> ScalarCache:
        return self.fabric.cache

    @property
    def port(self) -> IntervalRecorder:
        return self.fabric.port_recorder()

    @property
    def port_free(self) -> int:
        """Earliest cycle the next reference could claim a port."""
        return self.fabric.port_free()

    @property
    def port_quiet(self) -> int:
        """Cycle at which every port has finished its last reference.

        Identical to :attr:`port_free` on a single-port machine; on a
        multi-port machine the wind-down must wait for the *slowest* port,
        not the first free one.
        """
        return self.fabric.port_quiet()

    @property
    def traffic_bytes(self) -> int:
        return self.fabric.traffic_bytes

    @property
    def bypass_unit(self) -> IntervalRecorder:
        return self.bypass.recorder()

    @property
    def bypass_free(self) -> int:
        return self.bypass.free_time()

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
                bus_cycles=self.memory.vector_bus_cycles(vector_length),
                traffic_bytes=vector_length * ELEMENT_SIZE_BYTES,
                address_queue_index=self.vsaq.last_index,
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
                bus_cycles=self.memory.timings.scalar_bus_cycles,
                traffic_bytes=ELEMENT_SIZE_BYTES,
                address_queue_index=self.ssaq.last_index,
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
        self.vadq.push(push_time, ready=data_ready)
        store = self._find_pending(key)
        store.data_queue_index = self.vadq.last_index
        store.data_ready = data_ready

    def attach_scalar_store_data(self, key: int, push_time: int, data_ready: int) -> None:
        """Record that the SP has moved store ``key``'s data into the SADQ."""
        self.sadq.push(push_time, ready=data_ready)
        store = self._find_pending(key)
        store.data_queue_index = self.sadq.last_index
        store.data_ready = data_ready

    def _find_pending(self, key: int) -> PendingStore:
        for store in reversed(self.pending_stores):
            if store.key == key:
                return store
        raise SimulationError(f"no pending store found for record #{key}")

    def _make_room(self, queue: TimedQueue) -> None:
        """Force-drain old stores until ``queue`` has a free slot."""
        while queue.outstanding >= queue.capacity:
            if self._next_undrained >= len(self.pending_stores):
                raise SimulationError(
                    f"queue {queue.name!r} is full but there is nothing left to drain"
                )
            self.forced_drains += 1
            self._drain_oldest()

    # -- load servicing -----------------------------------------------------------------

    def reserve_load_data_slot(self, requested: int) -> int:
        """Earliest cycle the AVDQ can accept another vector load."""
        return self.avdq.earliest_push(requested)

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
        conflict_index = self._youngest_conflict(load_range)

        if conflict_index is not None and self.config.enable_bypass:
            candidate = self.pending_stores[conflict_index]
            # The bypass requires the load to read exactly what the queued
            # store will write: same base, stride and length, both strided
            # vector accesses (paper §7).
            if (
                not candidate.drained
                and candidate.is_vector
                and not indexed
                and not candidate.indexed
                and base == candidate.base
                and stride_elements == candidate.stride_elements
                and vector_length == candidate.length
            ):
                return self._bypass_load(vector_length, requested, candidate)

        if conflict_index is not None:
            requested = max(requested, self._drain_through(conflict_index))
            self.disambiguation_stalls += 1

        return self._memory_load(vector_length, requested)

    def issue_scalar_load(self, base: int, requested: int) -> int:
        """Service a scalar load through the cache; return its data-ready cycle."""
        load_range = MemoryRange(base, base + ELEMENT_SIZE_BYTES)
        conflict_index = self._youngest_conflict(load_range)
        if conflict_index is not None:
            requested = max(requested, self._drain_through(conflict_index))
            self.disambiguation_stalls += 1

        access = self.fabric.scalar_access_at(base, False)
        if access.hit:
            return self.fabric.scalar_load_ready(access, requested)

        self._drain_ready_stores(requested)
        bus_start, _bus_end = self.fabric.occupy_bus(
            requested, self.memory.timings.scalar_bus_cycles, ELEMENT_SIZE_BYTES
        )
        return self.fabric.scalar_load_ready(access, bus_start)

    def _bypass_load(
        self, vector_length: int, requested: int, store: PendingStore
    ) -> VectorLoadOutcome:
        length = max(vector_length, 1)
        start, _unit = self.bypass.acquire(max(requested, store.ready), length)
        end = start + length
        self.bypassed_loads += 1
        self.bypassed_bytes += vector_length * ELEMENT_SIZE_BYTES
        store.bypassed_to_loads += 1
        return VectorLoadOutcome(start=start, data_ready=end, bypassed=True)

    def _memory_load(self, vector_length: int, requested: int) -> VectorLoadOutcome:
        self._drain_ready_stores(requested)
        bus_cycles = self.memory.vector_bus_cycles(vector_length)
        bus_start, _bus_end = self.fabric.occupy_bus(
            requested, bus_cycles, vector_length * ELEMENT_SIZE_BYTES
        )
        data_ready = self.memory.load_ready(bus_start, bus_cycles)
        return VectorLoadOutcome(start=bus_start, data_ready=data_ready, bypassed=False)

    # -- disambiguation and draining ------------------------------------------------------

    def _youngest_conflict(self, load_range: MemoryRange) -> Optional[int]:
        """Index of the youngest queued (undrained) store overlapping ``load_range``."""
        for index in range(len(self.pending_stores) - 1, self._next_undrained - 1, -1):
            store = self.pending_stores[index]
            if store.drained:
                continue
            if store.memory_range.overlaps(load_range):
                return index
        return None

    def _drain_through(self, last_index: int) -> int:
        """Perform every queued store up to and including ``last_index``."""
        finish = 0
        while self._next_undrained <= last_index:
            finish = self._drain_oldest()
        return finish

    def _drain_ready_stores(self, candidate_start: int) -> None:
        """Let stores that are already waiting use the port before a later load.

        Stores are performed behind the AP's back whenever both their address
        and data are present; when such a store would be ready no later than
        the load that is currently asking for the port, it goes first (stores
        among themselves always retire in program order).
        """
        while self._next_undrained < len(self.pending_stores):
            store = self.pending_stores[self._next_undrained]
            if store.data_ready is None:
                break
            port_free = self.port_free
            if max(port_free, store.ready) > max(port_free, candidate_start):
                break
            self._drain_oldest()

    def _drain_oldest(self) -> int:
        store = self.pending_stores[self._next_undrained]
        self._next_undrained += 1
        end = self._perform_store(store)
        return end

    def _perform_store(self, store: PendingStore) -> int:
        if store.drained:
            return store.drain_end
        ready = store.ready
        if store.is_vector:
            _bus_start, bus_end = self.fabric.occupy_bus(
                ready, store.bus_cycles, store.traffic_bytes
            )
            self.vsaq.pop(bus_end)
            self.vadq.pop(bus_end)
            store.drain_end = bus_end
        else:
            store.drain_end = self._perform_scalar_store(store, ready)
        store.drained = True
        return store.drain_end

    def _perform_scalar_store(self, store: PendingStore, ready: int) -> int:
        access = self.fabric.scalar_access_at(store.base, True)
        if access.uses_port:
            _bus_start, end = self.fabric.occupy_bus(
                ready, store.bus_cycles, store.traffic_bytes
            )
        else:
            end = ready + 1
        self.ssaq.pop(end)
        self.sadq.pop(end)
        return end

    # -- wind-down -------------------------------------------------------------------------

    def drain_all(self) -> int:
        """Perform every store still sitting in the queues; return the last cycle."""
        finish = self.port_quiet
        while self._next_undrained < len(self.pending_stores):
            finish = max(finish, self._drain_oldest())
        return finish

    @property
    def outstanding_stores(self) -> int:
        return len(self.pending_stores) - self._next_undrained
