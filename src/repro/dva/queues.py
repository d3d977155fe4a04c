"""Timestamped bounded FIFO queues: the DVA's store queues.

The decoupled simulator never steps cycles; instead every store queue
(VSAQ, SSAQ for addresses; VADQ, SADQ for data) keeps, per entry, the cycle
at which the producer reserved the slot and the cycle at which the store
left the queue.  Because producers and consumers both work through the
program in order, the blocking behaviour of a bounded FIFO reduces to simple
timestamp arithmetic: a push must wait until the entry ``capacity``
positions earlier has been released.  When a store may leave (both its
address and its data present) is the
:class:`~repro.dva.address.MemoryPipeline`'s business.

Entry lifetimes are stored as two parallel timestamp lists rather than one
object per entry, so the hot path is integer list operations.

The other queues need less and are not :class:`TimedQueue`\\ s.  An entry
of an instruction queue (APIQ, VPIQ, SPIQ) or a load data queue (AVDQ,
ASDQ) is pushed and popped in the same trace step, so by the next push every
earlier entry has been released.  Such a queue is only the pop cycles of
its last ``capacity`` entries, a ring kept by
:class:`~repro.dva.simulator.DecoupledSimulator`'s loop: the next push waits
for the oldest of them.  A store's entries stay unreleased across steps
(its data waits for its drain), so the store queues keep every timestamp.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import SimulationError


class TimedQueue:
    """A bounded FIFO described entirely by timestamps."""

    __slots__ = (
        "name",
        "capacity",
        "push_times",
        "pop_times",
        "_next_pop_index",
        "push_stall_cycles",
    )

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError(f"queue {name!r} must have positive capacity")
        self.name = name
        self.capacity = capacity
        self.push_times: List[int] = []
        self.pop_times: List[Optional[int]] = []
        self._next_pop_index = 0
        self.push_stall_cycles = 0

    # -- producer side ---------------------------------------------------------------

    def earliest_push(self, requested: int) -> int:
        """Earliest cycle a new entry can be accepted, given the capacity."""
        index = len(self.push_times)
        if index < self.capacity:
            return requested
        blocking = self.pop_times[index - self.capacity]
        if blocking is None:
            raise SimulationError(
                f"queue {self.name!r}: entry {index - self.capacity} has not been "
                f"released yet; the consumer must be simulated first"
            )
        return blocking if blocking > requested else requested

    def push(self, requested: int) -> int:
        """Reserve a slot at the earliest legal cycle and return that cycle."""
        push_time = self.earliest_push(requested)
        self.push_stall_cycles += push_time - requested
        self.push_times.append(push_time)
        self.pop_times.append(None)
        return push_time

    # -- consumer side ----------------------------------------------------------------

    def pop(self, requested: int) -> None:
        """Release the entry at the head of the queue at ``requested`` or later.

        The caller decides when the store leaves (when it has been performed)
        — this method only checks FIFO order and records the release time.
        """
        index = self._next_pop_index
        if index >= len(self.push_times):
            raise SimulationError(f"queue {self.name!r}: pop with no outstanding entry")
        push_time = self.push_times[index]
        if requested < push_time:
            raise SimulationError(
                f"queue {self.name!r}: pop at {requested} precedes push at {push_time}"
            )
        self.pop_times[index] = requested
        self._next_pop_index += 1

    # -- statistics ----------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self.push_times) - self._next_pop_index

    def __len__(self) -> int:
        return len(self.push_times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimedQueue(name={self.name!r}, capacity={self.capacity}, "
            f"entries={len(self.push_times)}, outstanding={self.outstanding})"
        )
