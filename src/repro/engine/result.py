"""What every run of either machine measures.

Both machines have the same two vector functional units (FU1 restricted,
FU2 general purpose) and one memory port, so Figure 1's eight-state
breakdown, the port-idle fraction and the scalar-cache counters are the same
facts on both.  :class:`MachineResult` holds them once; each family's result
subclasses it with only its own fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.common.intervals import IntervalRecorder, state_breakdown


@dataclass(kw_only=True)
class MachineResult:
    """The measurements shared by the reference and decoupled results.

    The three units are named the way the paper names them: ``FU2``,
    ``FU1`` and ``LD`` (the memory port).  The eight-state breakdown of
    Figure 1 is the partition of total execution time by which subset of
    these three units is busy.
    """

    program: str
    latency: int
    total_cycles: int
    instructions: int
    fu1_busy: IntervalRecorder
    fu2_busy: IntervalRecorder
    port_busy: IntervalRecorder
    memory_traffic_bytes: int = 0
    scalar_cache_hits: int = 0
    scalar_cache_misses: int = 0
    #: Rows the fast-forward skipped rather than simulated (not in ``to_json``).
    skipped_rows: int = field(default=0, compare=False)

    _breakdown: Dict[Tuple[bool, ...], int] | None = field(
        default=None, repr=False, compare=False
    )

    def state_breakdown(self) -> Dict[Tuple[bool, ...], int]:
        """Cycles spent in each ``(FU2, FU1, LD)`` busy/idle combination."""
        if self._breakdown is None:
            self._breakdown = state_breakdown(
                [self.fu2_busy, self.fu1_busy, self.port_busy], self.total_cycles
            )
        return self._breakdown

    @property
    def all_idle_cycles(self) -> int:
        """Cycles in the paper's ``( , , )`` state: every vector unit idle."""
        return self.state_breakdown().get((False, False, False), 0)

    @property
    def port_busy_cycles(self) -> int:
        """Cycles the memory port is busy, read off the state breakdown.

        Every port interval ends by ``total_cycles`` (a fuzz invariant), so
        this is the port's busy time.
        """
        return sum(cycles for (_, _, port), cycles in self.state_breakdown().items() if port)

    @property
    def port_idle_fraction(self) -> float:
        """Fraction of the run during which the memory port does no work."""
        if self.total_cycles == 0:
            return 0.0
        return (self.total_cycles - self.port_busy_cycles) / self.total_cycles

    def to_json(self) -> Dict[str, object]:
        """A JSON-serializable dictionary of everything reports consume.

        These nine keys come first in every family's payload, so reports can
        mix results from both architectures without special-casing either.
        The value survives a ``json.dumps``/``json.loads`` round trip
        unchanged; :class:`repro.core.result.RunResult` embeds it verbatim.
        """
        return {
            "program": self.program,
            "latency": self.latency,
            "total_cycles": self.total_cycles,
            "instructions": self.instructions,
            "memory_traffic_bytes": self.memory_traffic_bytes,
            "scalar_cache_hits": self.scalar_cache_hits,
            "scalar_cache_misses": self.scalar_cache_misses,
            "all_idle_cycles": self.all_idle_cycles,
            "port_idle_fraction": round(self.port_idle_fraction, 4),
        }
