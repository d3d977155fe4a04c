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

Like every facade of the package, this one is lazy (PEP 562): importing
:mod:`repro.common` loads no submodule, so code that needs only the error
types never loads the interval machinery.
"""

from repro import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.common.errors": [
            "ConfigurationError",
            "ReproError",
            "SimulationError",
            "TraceError",
            "WorkloadError",
        ],
        "repro.common.intervals": ["IntervalRecorder", "StateBreakdown", "state_breakdown"],
        "repro.common.stats": ["Histogram"],
    },
)
