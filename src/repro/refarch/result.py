"""Results produced by the reference architecture simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.intervals import IntervalRecorder, StateBreakdown, state_breakdown


@dataclass
class ReferenceResult:
    """Everything the reference simulator measures in one run.

    The three functional units are named the way the paper names them:
    ``FU2`` (general purpose), ``FU1`` (restricted) and ``LD`` (the memory
    port).  The eight-state breakdown of Figure 1 is the partition of total
    execution time by which subset of these three units is busy.
    """

    program: str
    latency: int
    total_cycles: int
    instructions: int
    vector_instructions: int
    scalar_instructions: int
    fu1_busy: IntervalRecorder
    fu2_busy: IntervalRecorder
    port_busy: IntervalRecorder
    memory_traffic_bytes: int = 0
    scalar_cache_hits: int = 0
    scalar_cache_misses: int = 0
    dispatch_stall_cycles: int = 0
    category_cycles: Dict[str, int] = field(default_factory=dict)
    #: Rows the fast-forward skipped rather than simulated (not in ``to_json``).
    skipped_rows: int = field(default=0, compare=False)

    _breakdown: StateBreakdown | None = field(default=None, repr=False, compare=False)

    # -- derived quantities ----------------------------------------------------

    def state_breakdown(self) -> StateBreakdown:
        """Cycles spent in each (FU2, FU1, LD) busy/idle combination."""
        if self._breakdown is None:
            self._breakdown = state_breakdown(
                [self.fu2_busy, self.fu1_busy, self.port_busy], self.total_cycles
            )
        return self._breakdown

    @property
    def all_idle_cycles(self) -> int:
        """Cycles in the paper's ``( , , )`` state: every vector unit idle."""
        return self.state_breakdown().cycles_all_idle()

    @property
    def port_busy_cycles(self) -> int:
        """Cycles the memory port is busy, read off the state breakdown.

        Every port interval ends by ``total_cycles`` (a fuzz invariant), so
        this is the port's busy time.
        """
        return self.state_breakdown().busy_cycles(2)

    @property
    def port_idle_cycles(self) -> int:
        """Cycles during which the memory port performs no useful work."""
        return self.total_cycles - self.port_busy_cycles

    @property
    def port_idle_fraction(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.port_idle_cycles / self.total_cycles

    @property
    def port_busy_fraction(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.port_busy_cycles / self.total_cycles

    @property
    def scalar_cache_accesses(self) -> int:
        return self.scalar_cache_hits + self.scalar_cache_misses

    @property
    def scalar_cache_hit_rate(self) -> float:
        accesses = self.scalar_cache_accesses
        if accesses == 0:
            return 0.0
        return self.scalar_cache_hits / accesses

    def summary(self) -> Dict[str, object]:
        """A flat dictionary of headline numbers, convenient for reports.

        The first eight keys are the *core key set* shared with
        :meth:`repro.dva.result.DecoupledResult.summary`, so reports can mix
        results from both architectures without special-casing either.
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
            "scalar_cache_hit_rate": round(self.scalar_cache_hit_rate, 4),
        }

    def to_json(self) -> Dict[str, object]:
        """A JSON-serializable dictionary of everything reports consume.

        The returned value survives a ``json.dumps``/``json.loads`` round trip
        unchanged; :class:`repro.core.result.RunResult` embeds it verbatim.
        """
        return {
            **self.summary(),
            "vector_instructions": self.vector_instructions,
            "scalar_instructions": self.scalar_instructions,
            "dispatch_stall_cycles": self.dispatch_stall_cycles,
            "category_cycles": dict(self.category_cycles),
        }
