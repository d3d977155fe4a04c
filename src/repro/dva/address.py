"""The address processor's memory pipeline.

This module models everything that sits between the address processor and
main memory in the decoupled architecture (paper §4.2):

* the pipelined memory port (the :class:`~repro.engine.MemoryFabric`'s port
  units, one in the paper's machine) with its shared address bus,
* the two-step store mechanism: store addresses wait in the VSAQ/SSAQ until
  the matching data arrives (a vector store's in the VADQ, in the slot its
  address took), after which the store is performed "behind the back" of
  the AP; a scalar store's data waits beside its SSAQ entry, so the SDQ is
  modelled as at least as deep as the SSAQ and never fills first,
* dynamic memory disambiguation: a load is checked against every queued
  store; on a conflict the store queues drain up to the youngest offending
  store before the load may access memory,
* the store→load bypass (§7): a load identical to a queued vector store is
  serviced by copying the data from the VADQ into the AVDQ in VL cycles,
  without using the memory port and without paying memory latency,
* the scalar cache that filters scalar references away from the port (wired
  inside the fabric, shared with the reference machine's wiring).

A store queue is never stepped.  Producers and consumers both work
through the program in order, so a bounded FIFO's blocking reduces to
timestamp arithmetic: a push waits until the entry ``depth`` places back
has left.  A queue therefore keeps only the pop cycles of its last
``depth`` entries (:func:`ring`) beside the stores still pending.

The interface speaks the columnar trace's language: every reference is
described by the scalars the simulator already holds in locals (base
address, vector length, stride, the indexed flag), so no record objects
flow through the pipeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Optional

from repro.common.errors import SimulationError
from repro.engine import (
    BUS_CYCLES_PER_ELEMENT,
    MemoryFabric,
    occupancy_cycles,
    vector_bus_cycles,
)
from repro.engine.fastforward import relative
from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.memory.ranges import MemoryRange, access_range

if TYPE_CHECKING:
    from repro.core.machine import MachineSpec


def ring(depth: int) -> Deque[int]:
    """The pop cycles of an empty queue's last ``depth`` entries, oldest first.

    The zeros stand for the free slots of an empty queue; the ``maxlen``
    drops a pop cycle once no later push can wait for it.
    """
    return deque([0] * depth, maxlen=depth)


@dataclass(slots=True)
class PendingStore:
    """A store whose address sits in a store queue awaiting its data.

    The store is described entirely by scalars captured at enqueue time;
    ``length`` is the *effective* vector length (1 for scalar stores), from
    which its port occupancy and memory traffic follow.
    """

    base: int
    length: int
    stride_elements: int
    indexed: bool
    memory_range: MemoryRange
    is_vector: bool
    address_ready: int
    data_ready: Optional[int] = None

    @property
    def ready(self) -> int:
        """Cycle at which both address and data are available."""
        if self.data_ready is None:
            raise SimulationError(
                f"the store to {self.base:#x} has no data yet; the producing "
                f"QMOV must be simulated before the store can be performed"
            )
        return max(self.address_ready, self.data_ready)


class MemoryPipeline:
    """Port, store queues, disambiguation and bypass of the decoupled AP.

    The spec supplies the queue depths, the bypass switch, the port count
    and the scalar-cache geometry.

    :attr:`pending_stores` holds the queued stores that have not drained,
    oldest first; a store leaves it when it is performed.  A store queue
    (the VSAQ for vector stores, the SSAQ for scalar ones) is the pending
    stores of its kind plus the pop cycles of its last ``depth`` entries:
    a queue of ``n`` outstanding entries makes its next push wait for
    ``pops[n]``.  A vector store's data enters the VADQ in the slot its
    address took in the VSAQ, so the VADQ is no separate queue: the paper
    treats the store queue length as a single parameter (§5).
    """

    def __init__(self, spec: "MachineSpec", latency: int) -> None:
        self.bypass_enabled = spec.bypass
        self.fabric = MemoryFabric(spec, latency)

        #: Pop cycles of the VSAQ's and the SSAQ's last ``depth`` entries.
        self.vector_pops = ring(spec.vector_store_data)
        self.scalar_pops = ring(spec.scalar_store_address)
        #: Pending stores of each kind: the VSAQ's and the SSAQ's occupancy.
        self.vector_queued = 0
        self.scalar_queued = 0

        #: Next-free cycle of the bypass unit.
        self.bypass_free = 0

        self.pending_stores: Deque[PendingStore] = deque()

        self.bypassed_loads = 0
        self.bypassed_bytes = 0
        self.disambiguation_stalls = 0

    # -- store bookkeeping -------------------------------------------------------------

    def enqueue_vector_store(
        self,
        base: int,
        vector_length: int,
        stride_elements: int,
        indexed: bool,
        requested: int,
    ) -> int:
        """Put a vector store's address into the VSAQ; return the push cycle."""
        while self.vector_queued >= self.vector_pops.maxlen:
            self._drain_oldest()
        push_time = self.vector_pops[self.vector_queued]
        if requested > push_time:
            push_time = requested
        self.vector_queued += 1
        self.pending_stores.append(
            PendingStore(
                base=base,
                length=vector_length,
                stride_elements=stride_elements,
                indexed=indexed,
                memory_range=access_range(
                    base, vector_length, stride_elements, indexed=indexed
                ),
                is_vector=True,
                address_ready=push_time + 1,
            )
        )
        return push_time

    def enqueue_scalar_store(self, base: int, requested: int) -> int:
        """Put a scalar store's address into the SSAQ; return the push cycle."""
        while self.scalar_queued >= self.scalar_pops.maxlen:
            self._drain_oldest()
        push_time = self.scalar_pops[self.scalar_queued]
        if requested > push_time:
            push_time = requested
        self.scalar_queued += 1
        self.pending_stores.append(
            PendingStore(
                base=base,
                length=1,
                stride_elements=1,
                indexed=False,
                memory_range=MemoryRange(base, base + ELEMENT_SIZE_BYTES),
                is_vector=False,
                address_ready=push_time + 1,
            )
        )
        return push_time

    def vector_data_slot(self) -> int:
        """Cycle the newest vector store's VADQ slot is free.

        The data takes the slot its address took in the VSAQ, so the QMOV
        moving it waits for the same pop as the address push did.
        """
        return self.vector_pops[self.vector_queued - 1]

    def attach_store_data(self, data_ready: int) -> None:
        """Record that the newest store's data is in its queue at ``data_ready``.

        Every store's QMOV runs in the trace step that queued its address,
        so the data always belongs to the newest pending store.
        """
        self.pending_stores[-1].data_ready = data_ready

    # -- load servicing -----------------------------------------------------------------

    def issue_vector_load(
        self,
        base: int,
        vector_length: int,
        stride_elements: int,
        indexed: bool,
        requested: int,
    ) -> int:
        """Service a vector load: bypass it or send it to main memory.

        ``requested`` is the cycle at which the AP has the load ready to go
        (operands available, AVDQ slot reservable).  Returns the cycle the
        load's last element is available in the AVDQ.
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

    def _bypass_load(self, vector_length: int, requested: int, store: PendingStore) -> int:
        start = max(requested, store.ready, self.bypass_free)
        end = start + occupancy_cycles(vector_length, 1)
        self.bypass_free = end
        self.bypassed_loads += 1
        self.bypassed_bytes += vector_length * ELEMENT_SIZE_BYTES
        return end

    def _memory_load(self, vector_length: int, requested: int) -> int:
        self._drain_ready_stores(requested)
        bus_cycles = vector_bus_cycles(vector_length)
        bus_start, _bus_end = self.fabric.occupy_bus(
            requested, bus_cycles, vector_length * ELEMENT_SIZE_BYTES
        )
        return self.fabric.vector_load_ready(bus_start, bus_cycles)

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
        port_free = self.fabric.port_free
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
        store = self.pending_stores.popleft()
        ready = store.ready
        if store.is_vector or not self.fabric.cache.access(store.base):
            _bus_start, end = self.fabric.occupy_bus(
                ready, vector_bus_cycles(store.length), store.length * ELEMENT_SIZE_BYTES
            )
        else:
            # A scalar hit is absorbed by the cache; only a miss uses the port.
            end = ready + 1
        if end < store.address_ready - 1:
            raise SimulationError(
                f"the store to {store.base:#x} leaves at {end}, before its "
                f"push at {store.address_ready - 1}"
            )
        if store.is_vector:
            self.vector_queued -= 1
            self.vector_pops.append(end)
        else:
            self.scalar_queued -= 1
            self.scalar_pops.append(end)
        return end

    # -- fast-forward ----------------------------------------------------------------------

    def fingerprint(self, origin: int, fetch: int, address: int) -> tuple:
        """The pipeline's state relative to ``origin`` (a fast-forward fingerprint).

        ``fetch`` is the floor of every request into the store queues and
        ``address`` that of every bypass request.  A push waits for a pop
        cycle only when it is later than the request.  Queued stores must
        match exactly.
        """
        bypass_free = self.bypass_free
        return (
            self.fabric.relative(origin),
            None if bypass_free < address else bypass_free - origin,
            relative(self.vector_pops, origin, fetch),
            relative(self.scalar_pops, origin, fetch),
            tuple(
                (
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

    def shift(self, cycles: int) -> None:
        """Move every timestamp ``cycles`` later."""
        self.fabric.shift(cycles)
        self.bypass_free += cycles
        for name in ("vector_pops", "scalar_pops"):
            pops = getattr(self, name)
            setattr(self, name, deque([time + cycles for time in pops], pops.maxlen))
        for store in self.pending_stores:
            store.address_ready += cycles
            if store.data_ready is not None:
                store.data_ready += cycles

    # -- wind-down -------------------------------------------------------------------------

    def drain_all(self) -> int:
        """Perform every store still sitting in the queues; return the last cycle."""
        finish = self.fabric.port_quiet()
        while self.pending_stores:
            finish = max(finish, self._drain_oldest())
        return finish
