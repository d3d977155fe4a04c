"""Timestamped bounded FIFO queues: the DVA's store queues.

The decoupled simulator never steps cycles; instead every store queue
(VSAQ, SSAQ for addresses; VADQ for vector data) keeps the cycles at which
its outstanding entries were pushed and the cycles at which its last
``capacity`` released entries left.  Because producers and consumers both
work through the program in order, the blocking behaviour of a bounded FIFO
reduces to simple timestamp arithmetic: a push must wait until the entry
``capacity`` positions earlier has been released.  When a store may leave
(both its address and its data present) is the
:class:`~repro.dva.address.MemoryPipeline`'s business.

Nothing older can be read, so the queue holds no more than that window: an
outstanding entry's push cycle (checked when it pops) and the pop cycles of
the last ``capacity`` entries, one of which a push waits for.  The window
starts as ``capacity`` zeros, the free slots of an empty queue, so a queue
of ``n`` outstanding entries makes its next push wait for ``pops[n]``.

The other queues need less and are not :class:`TimedQueue`\\ s.  An entry
of an instruction queue (APIQ, VPIQ, SPIQ) or the AVDQ is pushed and popped
in the same trace step, so by the next push every earlier entry has been
released.  Such a queue is only the pop cycles of its last ``capacity``
entries, a ring kept by :class:`~repro.dva.simulator.DecoupledSimulator`'s
loop: the next push waits for the oldest of them.  A store's entries stay
unreleased across steps (its data waits for its drain), so the store queues
also keep the push cycles of their outstanding entries.  The scalar data
queues keep nothing: they are modelled deep enough never to delay a step
(the simulator's module docstring says why).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.common.errors import SimulationError
from repro.engine.fastforward import relative


class TimedQueue:
    """A bounded FIFO described entirely by timestamps."""

    __slots__ = ("name", "capacity", "pushes", "pops")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError(f"queue {name!r} must have positive capacity")
        self.name = name
        self.capacity = capacity
        #: Push cycles of the outstanding entries, oldest first.
        self.pushes: Deque[int] = deque()
        #: Pop cycles of the last ``capacity`` released entries, oldest first.
        self.pops: Deque[int] = deque([0] * capacity, maxlen=capacity)

    # -- producer side ---------------------------------------------------------------

    def earliest_push(self, requested: int) -> int:
        """Earliest cycle a new entry can be accepted, given the capacity."""
        outstanding = len(self.pushes)
        if outstanding >= self.capacity:
            raise SimulationError(
                f"queue {self.name!r}: the entry {self.capacity} places back has "
                f"not been released yet; the consumer must be simulated first"
            )
        blocking = self.pops[outstanding]
        return blocking if blocking > requested else requested

    def push(self, requested: int) -> int:
        """Reserve a slot at the earliest legal cycle and return that cycle."""
        push_time = self.earliest_push(requested)
        self.pushes.append(push_time)
        return push_time

    # -- consumer side ----------------------------------------------------------------

    def pop(self, requested: int) -> None:
        """Release the entry at the head of the queue at ``requested``.

        The caller decides when the store leaves (when it has been performed)
        — this method only checks FIFO order and records the release time.
        """
        if not self.pushes:
            raise SimulationError(f"queue {self.name!r}: pop with no outstanding entry")
        push_time = self.pushes[0]
        if requested < push_time:
            raise SimulationError(
                f"queue {self.name!r}: pop at {requested} precedes push at {push_time}"
            )
        self.pushes.popleft()
        self.pops.append(requested)

    # -- state ---------------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self.pushes)

    def relative(self, origin: int, floor: int) -> tuple:
        """The window relative to ``origin`` (a fast-forward fingerprint).

        A push waits for a pop cycle only when it is later than the request,
        and no future request is earlier than ``floor``.
        """
        return (
            tuple(time - origin for time in self.pushes),
            relative(self.pops, origin, floor),
        )

    def shift(self, cycles: int) -> None:
        """Move every timestamp ``cycles`` later."""
        self.pushes = deque([time + cycles for time in self.pushes])
        self.pops = deque([time + cycles for time in self.pops], self.capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimedQueue(name={self.name!r}, capacity={self.capacity}, "
            f"outstanding={self.outstanding})"
        )
