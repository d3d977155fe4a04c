"""The shared timing kernel both simulated machines are built on.

The reference and decoupled simulators share the same timing machinery —
register scoreboards with chain-start tracking, free-time bookkeeping for
functional units and the memory port, the scalar cache in front of the
ports.  This package is that machinery as one tested kernel:

* :class:`Scoreboard` — register ready/chain-start/owner lists indexed by
  :attr:`~repro.isa.registers.Register.id`; each simulator's issue loop
  applies its own read rule to them inline.
* functional units and memory ports as plain lists — one next-free cycle
  per unit beside one :class:`~repro.common.intervals.IntervalRecorder` per
  unit — that each issue loop picks from inline: the least-loaded unit, the
  first one winning ties; :func:`occupancy_cycles` converts vector lengths
  to busy cycles for multi-lane units.
* :class:`MemoryFabric` — the memory ports, the scalar cache in front of
  it, and traffic accounting, wired once for both machines, plus the fixed
  bus and cache-hit timing of the paper's memory system
  (:func:`vector_bus_cycles` is the one bus-occupancy rule).
* :data:`FU_STARTUP` — the vector functional units' pipeline depth, the
  same on both machines.
* :mod:`repro.engine.fastforward` — the walk over a trace's kernel
  invocation marks that both issue loops run in: it skips, exactly, the
  invocations that repeat a steady state.
* :class:`repro.engine.result.MachineResult` — what every run of either
  machine measures (the unit busy recorders, traffic, scalar-cache
  counters, Figure 1's state breakdown); each family's result subclasses
  it.

Everything works in one-pass timestamp arithmetic: simulators process the
trace once in program order and never step individual cycles.  The issue
rules themselves live in each simulator's ``issue`` loop; the simulator
keeps its unit free lists, completion horizon and stall counters as plain
attributes.  Both simulators read their machine straight off a
:class:`~repro.core.machine.MachineSpec`:
a new variant (more lanes, more ports, different queueing) is a spec value
over these primitives rather than a new 400-line simulator.  What no spec
field covers is a named module constant of the paper's machine; editing
one changes timing, so it must bump :data:`TIMING_MODEL_VERSION`.
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

from repro.engine.memory import (
    BUS_CYCLES_PER_ELEMENT,
    CACHE_HIT_LATENCY,
    MemoryFabric,
    vector_bus_cycles,
)
from repro.engine.resources import FU_STARTUP, occupancy_cycles
from repro.engine.scoreboard import Scoreboard

__all__ = [
    "BUS_CYCLES_PER_ELEMENT",
    "CACHE_HIT_LATENCY",
    "FU_STARTUP",
    "TIMING_MODEL_VERSION",
    "MemoryFabric",
    "Scoreboard",
    "occupancy_cycles",
    "vector_bus_cycles",
]
