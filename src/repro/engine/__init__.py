"""The shared timing kernel both simulated machines are built on.

The reference and decoupled simulators used to hand-roll the same timing
machinery twice — register scoreboards with chain-start tracking, free-time
bookkeeping for functional units and the memory port, stall accounting, the
completion-horizon logic.  This package is that machinery as one tested
kernel:

* :class:`Scoreboard` — register ready/chain-start/owner tracking.
* :class:`ResourcePool` — *k* interchangeable units, each a free-time +
  :class:`~repro.common.intervals.IntervalRecorder` pair, with the seed's
  least-loaded/first-wins selection rule; :func:`occupancy_cycles` converts
  vector lengths to busy cycles for multi-lane units.
* :class:`StallAccountant` — named stall counters and per-category cycles.
* :class:`MemoryFabric` — the memory-port pool, the scalar cache in front of
  it, and traffic accounting, wired once for both machines.
* :class:`TimingCore` — composes the above with the completion horizon.

Everything works in one-pass timestamp arithmetic: simulators process the
trace once in program order and never step individual cycles, so a new
machine variant (more lanes, more ports, different queueing) is configuration
over these primitives rather than a new 400-line simulator.
"""

#: Version of the timing model the simulators implement on these primitives.
#: Any change that alters simulated numbers for an unchanged input — an issue
#: rule, a latency formula, a stall-accounting fix (such changes are exactly
#: what ``tests/golden`` exists to catch) — must bump this constant: it is
#: folded into every :mod:`repro.store` cache key, so bumping it keeps
#: results persisted by the old timing model from being served as hits.
#: v2: the columnar hot-loop restructuring — cycle-for-cycle identical (the
#: golden suite pins it), but results persisted by the record-at-a-time
#: implementation are not served as hits across the representation change.
TIMING_MODEL_VERSION = 2

from repro.engine.memory import MemoryFabric, ScalarAccess
from repro.engine.resources import ResourcePool, occupancy_cycles
from repro.engine.scoreboard import RegisterEntry, Scoreboard
from repro.engine.stalls import StallAccountant
from repro.engine.timing import TimingCore

__all__ = [
    "TIMING_MODEL_VERSION",
    "MemoryFabric",
    "RegisterEntry",
    "ResourcePool",
    "ScalarAccess",
    "Scoreboard",
    "StallAccountant",
    "TimingCore",
    "occupancy_cycles",
]
