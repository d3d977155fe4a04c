"""Shared infrastructure used by every subsystem of the reproduction.

The simulators in :mod:`repro.refarch` and :mod:`repro.dva` are event driven:
instead of stepping the machine cycle by cycle they record, for every hardware
resource, the *intervals* of time during which the resource was busy, and for
every queue element the ``[enter, leave)`` interval it spent queued, each in
an :class:`IntervalRecorder`.  The helpers in this package turn those
records back into the per-cycle quantities the paper reports with one sweep
each per result: the functional-unit state breakdown (a busy bitmask per
merged interval edge) and the queue occupancy histogram
(:meth:`IntervalRecorder.coverage`, +1/-1 per residency edge), never
iterating over individual cycles.
"""

from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceError,
    WorkloadError,
)
from repro.common.intervals import IntervalRecorder, StateBreakdown, state_breakdown
from repro.common.stats import Histogram

__all__ = [
    "ConfigurationError",
    "Histogram",
    "IntervalRecorder",
    "ReproError",
    "SimulationError",
    "StateBreakdown",
    "TraceError",
    "WorkloadError",
    "state_breakdown",
]
