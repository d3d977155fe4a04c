"""Results produced by the decoupled architecture simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.intervals import IntervalRecorder, StateBreakdown, state_breakdown
from repro.common.stats import Histogram
from repro.common.timeline import OccupancyTimeline


@dataclass
class DecoupledResult:
    """Everything one decoupled-architecture run measures.

    In addition to the quantities the reference result exposes (total cycles,
    functional-unit and memory-port busy intervals, traffic), the decoupled
    result carries the AVDQ occupancy timeline needed for Figure 6, the
    bypass statistics of Section 7 and per-processor instruction counts.
    """

    program: str
    latency: int
    total_cycles: int
    instructions: int
    bypass_enabled: bool

    fu1_busy: IntervalRecorder
    fu2_busy: IntervalRecorder
    port_busy: IntervalRecorder

    avdq_occupancy: OccupancyTimeline

    instructions_per_processor: Dict[str, int] = field(default_factory=dict)
    memory_traffic_bytes: int = 0
    bypassed_loads: int = 0
    bypassed_bytes: int = 0
    disambiguation_stalls: int = 0
    fetch_stall_cycles: int = 0
    scalar_cache_hits: int = 0
    scalar_cache_misses: int = 0
    #: Rows the fast-forward skipped rather than simulated (not in ``to_json``).
    skipped_rows: int = field(default=0, compare=False)

    _breakdown: StateBreakdown | None = field(default=None, repr=False, compare=False)
    _avdq_histogram: Histogram | None = field(default=None, repr=False, compare=False)

    # -- unit-state analysis (Figures 1/4 style) ---------------------------------------

    def state_breakdown(self) -> StateBreakdown:
        """Cycles in each (FU2, FU1, LD) combination — comparable to the REF breakdown."""
        if self._breakdown is None:
            self._breakdown = state_breakdown(
                [self.fu2_busy, self.fu1_busy, self.port_busy], self.total_cycles
            )
        return self._breakdown

    @property
    def all_idle_cycles(self) -> int:
        """Cycles with FU2, FU1 and the memory port all idle (paper's ``( , , )``)."""
        return self.state_breakdown().cycles_all_idle()

    @property
    def port_busy_cycles(self) -> int:
        """Cycles the memory port is busy, read off the state breakdown.

        Every port interval ends by ``total_cycles`` (a fuzz invariant), so
        this is the port's busy time.
        """
        return self.state_breakdown().busy_cycles(2)

    @property
    def port_idle_fraction(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return 1.0 - self.port_busy_cycles / self.total_cycles

    @property
    def port_busy_fraction(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.port_busy_cycles / self.total_cycles

    # -- queue analysis (Figure 6) -------------------------------------------------------

    def avdq_histogram(self) -> Histogram:
        """Cycles at each AVDQ occupancy level over the whole run (swept once).

        Every AVDQ residency ends by ``total_cycles`` (a fuzz invariant), so
        this histogram also yields the run's peak and mean occupancy.
        """
        if self._avdq_histogram is None:
            self._avdq_histogram = self.avdq_occupancy.occupancy_histogram(
                self.total_cycles
            )
        return self._avdq_histogram

    def max_avdq_occupancy(self) -> int:
        return self.avdq_histogram().max_key()

    def mean_avdq_occupancy(self) -> float:
        return self.avdq_histogram().mean()

    def summary(self) -> Dict[str, object]:
        """Headline numbers as a flat dictionary.

        The first eight keys are the *core key set* shared with
        :meth:`repro.refarch.result.ReferenceResult.summary`, so reports can
        mix results from both architectures without special-casing either.
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
            "bypass": self.bypass_enabled,
            "bypassed_loads": self.bypassed_loads,
            "max_avdq_occupancy": self.max_avdq_occupancy(),
            "fetch_stall_cycles": self.fetch_stall_cycles,
        }

    def to_json(self) -> Dict[str, object]:
        """A JSON-serializable dictionary of everything reports consume.

        The returned value survives a ``json.dumps``/``json.loads`` round trip
        unchanged; :class:`repro.core.result.RunResult` embeds it verbatim.
        The AVDQ occupancy histogram is stored as sorted ``[level, cycles]``
        pairs because JSON objects cannot have integer keys.
        """
        return {
            **self.summary(),
            "bypassed_bytes": self.bypassed_bytes,
            "disambiguation_stalls": self.disambiguation_stalls,
            "instructions_per_processor": dict(self.instructions_per_processor),
            "mean_avdq_occupancy": round(self.mean_avdq_occupancy(), 4),
            "avdq_histogram": [
                [level, cycles] for level, cycles in self.avdq_histogram().items()
            ],
        }
