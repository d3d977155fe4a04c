"""Free-time bookkeeping for groups of identical execution resources.

Functional units and memory ports both follow one pattern: a request
starts no earlier than both its operands and the unit allow, holds the unit
for some cycles, and the unit's next-free time moves forward.  The
seed simulators hand-rolled this as ``fu1_free``/``fu2_free``/``port_free``
integers paired with :class:`~repro.common.intervals.IntervalRecorder`\\ s (and
a ``setattr`` dance to write the right attribute back); :class:`ResourcePool`
is that pattern as a reusable object, generalized to *k* units so a
multi-lane or multi-port machine is a constructor argument, not a fork.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.intervals import IntervalRecorder

#: Pipeline depth of the vector functional units on both machines: the first
#: element of a result is available for chaining this many cycles after the
#: instruction starts (paper §2.1; the DVA's VP reuses the same units, §4.3).
FU_STARTUP = 4


def occupancy_cycles(elements: int, lanes: int = 1) -> int:
    """Cycles a ``lanes``-wide unit needs to process ``elements`` elements.

    A zero-element request still costs one cycle (issuing it), matching the
    single-lane seed behaviour of ``max(elements, 1)``.
    """
    if lanes <= 0:
        raise ConfigurationError("a vector unit needs at least one lane")
    return max(-(-max(elements, 1) // lanes), 1)


class ResourcePool:
    """A named group of interchangeable units with per-unit free times.

    Each unit pairs a next-free cycle with an
    :class:`IntervalRecorder` of its busy intervals.  Selection among free
    units is least-loaded with the *first* unit winning ties — exactly the
    seed's ``fu1_free <= fu2_free`` rule, which golden tests pin.

    :attr:`free` (one next-free cycle per unit) and :attr:`recorders` are
    the interface a hot loop uses to pick a unit inline, without a call per
    request: take the least-loaded unit, start no earlier than its free
    time, set its free time to the interval's end and append the interval to
    that unit recorder's ``starts``/``ends`` lists.  :meth:`acquire` is the
    same rule as one call.
    """

    def __init__(
        self,
        name: str,
        count: int = 1,
        unit_names: Optional[Sequence[str]] = None,
    ) -> None:
        if count <= 0:
            raise ConfigurationError(f"resource pool {name!r} needs at least one unit")
        if unit_names is not None and len(unit_names) != count:
            raise ConfigurationError(
                f"resource pool {name!r}: {count} units but "
                f"{len(unit_names)} unit names"
            )
        self.name = name
        if unit_names is None:
            unit_names = [name] if count == 1 else [f"{name}{i}" for i in range(count)]
        self.unit_names: Tuple[str, ...] = tuple(unit_names)
        self.free: List[int] = [0] * count
        self.recorders: List[IntervalRecorder] = [
            IntervalRecorder(unit) for unit in self.unit_names
        ]

    def __len__(self) -> int:
        return len(self.free)

    # -- selection ---------------------------------------------------------------------

    def least_loaded(self) -> int:
        """Index of the unit that frees up first (first unit wins ties)."""
        free = self.free
        return free.index(min(free))

    def latest_free(self) -> int:
        """Cycle at which *every* unit is free (the pool has gone quiet)."""
        return max(self.free)

    # -- occupation --------------------------------------------------------------------

    def acquire(
        self, earliest: int, busy: int, unit: Optional[int] = None
    ) -> Tuple[int, int]:
        """Reserve a unit for ``busy`` cycles starting at the earliest legal cycle.

        Picks the least-loaded unit unless ``unit`` pins one (the seed's
        ``requires_fu2`` case).  Returns ``(start_cycle, unit_index)``.
        """
        if unit is None:
            unit = self.least_loaded()
        start = max(earliest, self.free[unit])
        self.occupy(start, start + busy, unit)
        return start, unit

    def occupy(self, start: int, end: int, unit: int = 0) -> None:
        """Mark one unit busy over ``[start, end)`` and move its free time.

        The lower-level sibling of :meth:`acquire`, for callers that compute
        the interval themselves (e.g. a processor whose issue pointer advances
        one cycle while the work it started runs longer).
        """
        if end < start:
            raise SimulationError(
                f"resource pool {self.name!r}: busy interval ends ({end}) "
                f"before it starts ({start})"
            )
        self.recorders[unit].record(start, end)
        if end > self.free[unit]:
            self.free[unit] = end

    def shift(self, cycles: int) -> None:
        """Move every unit's free time ``cycles`` later."""
        self.free[:] = [free + cycles for free in self.free]

    # -- statistics --------------------------------------------------------------------

    def recorder(self, unit: int = 0) -> IntervalRecorder:
        """The busy-interval recorder of one unit."""
        return self.recorders[unit]

    def combined_recorder(self, name: Optional[str] = None) -> IntervalRecorder:
        """One recorder covering every unit ("is *any* unit busy?").

        With a single unit this is that unit's own recorder, so existing
        single-port results stay structurally identical to the seed's.
        """
        if len(self.recorders) == 1 and name is None:
            return self.recorders[0]
        combined = IntervalRecorder(name or self.name)
        for recorder in self.recorders:
            combined.extend(recorder)
        return combined

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourcePool(name={self.name!r}, free={self.free})"
