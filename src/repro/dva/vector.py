"""Execution resources of the decoupled vector processor.

The VP is almost exactly the vector half of the reference architecture
(paper §4.3): the same two functional units with the same chaining rules, plus
two queue-move (QMOV) units that transfer whole vector registers between the
architectural queues and the register file.  Both groups are
:class:`~repro.engine.ResourcePool`\\ s from the shared engine kernel; the
functional units honour the machine's lane count.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.intervals import IntervalRecorder
from repro.engine import ResourcePool, occupancy_cycles

_FU1 = 0
_FU2 = 1


class VectorExecutionResources:
    """Busy-time bookkeeping for FU1, FU2 and the QMOV units."""

    def __init__(self, qmov_unit_count: int = 2, lanes: int = 1) -> None:
        self.lanes = lanes
        self.fus = ResourcePool("FU", count=2, unit_names=("FU1", "FU2"))
        self.qmovs = ResourcePool(
            "QMOV",
            count=qmov_unit_count,
            unit_names=[f"QMOV{i}" for i in range(qmov_unit_count)],
        )

    # -- functional units -------------------------------------------------------------

    def acquire_functional_unit(
        self, earliest: int, length: int, requires_fu2: bool
    ) -> Tuple[int, int]:
        """Reserve a functional unit; return ``(start_cycle, busy_cycles)``.

        FU2 executes everything, FU1 only what does not require FU2; among
        eligible units the least-loaded wins, FU1 taking ties.  ``busy_cycles``
        is the unit occupancy after lane division — the caller derives the
        completion cycle from it.
        """
        busy = occupancy_cycles(length, self.lanes)
        unit = _FU2 if requires_fu2 else None
        start, _unit = self.fus.acquire(earliest, busy, unit=unit)
        return start, busy

    # -- queue-move units ---------------------------------------------------------------

    def acquire_qmov_unit(self, earliest: int, length: int) -> Tuple[int, int]:
        """Reserve the earliest-free QMOV unit; return (start_cycle, unit_index)."""
        return self.qmovs.acquire(earliest, length)

    # -- statistics -----------------------------------------------------------------------

    @property
    def fu1(self) -> IntervalRecorder:
        return self.fus.recorder(_FU1)

    @property
    def fu2(self) -> IntervalRecorder:
        return self.fus.recorder(_FU2)

    @property
    def qmov_units(self) -> List[IntervalRecorder]:
        return list(self.qmovs.recorders)
