"""Results produced by the decoupled architecture simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.intervals import IntervalRecorder
from repro.engine.result import MachineResult


@dataclass(kw_only=True)
class DecoupledResult(MachineResult):
    """Everything one decoupled-architecture run measures.

    Beyond the shared :class:`~repro.engine.result.MachineResult`
    measurements: the AVDQ residencies needed for Figure 6, the bypass
    statistics of Section 7 and per-processor instruction counts.
    """

    bypass_enabled: bool
    #: One ``[enter, leave)`` interval per AVDQ element: its coverage count
    #: is the queue's occupancy.
    avdq_occupancy: IntervalRecorder
    instructions_per_processor: Dict[str, int] = field(default_factory=dict)
    bypassed_loads: int = 0
    bypassed_bytes: int = 0
    disambiguation_stalls: int = 0
    fetch_stall_cycles: int = 0

    _avdq_histogram: Dict[int, int] | None = field(default=None, repr=False, compare=False)

    def avdq_histogram(self) -> Dict[int, int]:
        """``{occupancy: cycles}`` over the whole run (swept once).

        Every AVDQ residency ends by ``total_cycles`` (a fuzz invariant), so
        this histogram also yields the run's peak and mean occupancy.
        """
        if self._avdq_histogram is None:
            self._avdq_histogram = self.avdq_occupancy.coverage(self.total_cycles)
        return self._avdq_histogram

    def to_json(self) -> Dict[str, object]:
        """The shared payload, then the DVA's own keys.

        The AVDQ occupancy histogram is stored as sorted ``[level, cycles]``
        pairs because JSON objects cannot have integer keys.
        """
        histogram = self.avdq_histogram()
        cycles = sum(histogram.values())
        weighted = sum(level * count for level, count in histogram.items())
        return {
            **super().to_json(),
            "bypass": self.bypass_enabled,
            "bypassed_loads": self.bypassed_loads,
            "max_avdq_occupancy": max(histogram, default=0),
            "fetch_stall_cycles": self.fetch_stall_cycles,
            "bypassed_bytes": self.bypassed_bytes,
            "disambiguation_stalls": self.disambiguation_stalls,
            "instructions_per_processor": dict(self.instructions_per_processor),
            "mean_avdq_occupancy": round(weighted / cycles if cycles else 0.0, 4),
            "avdq_histogram": [list(pair) for pair in sorted(histogram.items())],
        }
