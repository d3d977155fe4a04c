"""Timestamped bounded FIFO queues.

The decoupled simulator never steps cycles; instead every queue keeps, per
entry, the cycle at which the producer reserved the slot, the cycle at which
the entry's data became available, and the cycle at which the consumer
released the slot.  Because producers and consumers both work through the
program in order, the blocking behaviour of a bounded FIFO reduces to simple
timestamp arithmetic:

* a push must wait until the entry ``capacity`` positions earlier has been
  released, and
* a pop must wait until the entry at the head of the queue is ready.

Entry lifetimes are stored as three parallel timestamp lists rather than one
object per entry: the simulator pushes into these queues for every dynamic
instruction, so the columnar layout keeps the hot path to integer list
operations.  :class:`QueueEntry` remains as a materialized *view* of one
entry for callers that want named fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import SimulationError
from repro.common.timeline import OccupancyTimeline


@dataclass
class QueueEntry:
    """Lifetime of one element of a timed queue (a view, not the storage)."""

    push_time: int
    ready_time: int
    pop_time: Optional[int] = None


class TimedQueue:
    """A bounded FIFO described entirely by timestamps."""

    __slots__ = (
        "name",
        "capacity",
        "push_times",
        "ready_times",
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
        self.ready_times: List[int] = []
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

    def push(self, requested: int, ready: Optional[int] = None) -> int:
        """Reserve a slot at the earliest legal cycle and return that cycle."""
        push_time = self.earliest_push(requested)
        self.push_stall_cycles += push_time - requested
        self.push_times.append(push_time)
        self.ready_times.append(ready if ready is not None else push_time)
        self.pop_times.append(None)
        return push_time

    def push_at(self, push_time: int, ready: int) -> int:
        """Append an entry at a cycle the caller has already legalized.

        The fast path for producers that called :meth:`earliest_push`
        themselves (the fetch processor computes one push cycle across
        several queues): no capacity re-check, no stall accounting — both
        are the caller's responsibility.  Returns the new entry's index.
        """
        self.push_times.append(push_time)
        self.ready_times.append(ready)
        self.pop_times.append(None)
        return len(self.push_times) - 1

    @property
    def last_index(self) -> int:
        if not self.push_times:
            raise SimulationError(f"queue {self.name!r} is empty")
        return len(self.push_times) - 1

    # -- consumer side ----------------------------------------------------------------

    def front_index(self) -> int:
        """Index of the entry the next pop will take."""
        if self._next_pop_index >= len(self.push_times):
            raise SimulationError(f"queue {self.name!r}: pop with no outstanding entry")
        return self._next_pop_index

    def front_ready(self) -> int:
        """Ready cycle of the entry at the head of the queue."""
        return self.ready_times[self.front_index()]

    def front(self) -> QueueEntry:
        """A view of the entry at the head of the queue."""
        return self.entry(self.front_index())

    def entry(self, index: int) -> QueueEntry:
        """A view of entry ``index``."""
        return QueueEntry(
            push_time=self.push_times[index],
            ready_time=self.ready_times[index],
            pop_time=self.pop_times[index],
        )

    def pop(self, requested: int) -> None:
        """Release the entry at the head of the queue at ``requested`` or later.

        The caller decides what "consuming" means (for instruction queues the
        pop time is the cycle the instruction issues; for data queues it is the
        cycle the last element has been drained) — this method only checks FIFO
        order and records the release time.
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

    def occupancy_timeline(self, name: Optional[str] = None, horizon: int = 0) -> OccupancyTimeline:
        """Residency records of every entry (unreleased entries last to ``horizon``)."""
        timeline = OccupancyTimeline(name or self.name, capacity=self.capacity)
        for push_time, pop_time in zip(self.push_times, self.pop_times):
            leave = pop_time if pop_time is not None else max(horizon, push_time)
            timeline.record(push_time, leave)
        return timeline

    def __len__(self) -> int:
        return len(self.push_times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimedQueue(name={self.name!r}, capacity={self.capacity}, "
            f"entries={len(self.push_times)}, outstanding={self.outstanding})"
        )
