"""The reference (non-decoupled) vector architecture simulator.

This models the machine of paper §2.1: a close relative of the Convex C3400
with a scalar part that issues at most one instruction per cycle, two vector
functional units (FU1 restricted, FU2 general purpose), a single memory port,
eight 128-element vector registers, flexible chaining between functional units
and into stores, and **no** chaining after vector loads.

The simulator is event driven: it processes the dynamic trace once, in program
order, computing for every instruction the cycle at which the in-order
dispatcher can issue it and the intervals during which it occupies its
functional unit or the memory port.  The machine is read off a ``ref``-family
:class:`~repro.core.machine.MachineSpec` (lanes, ports, load chaining,
scalar-cache geometry).  Per-cycle quantities such as the
eight-state execution breakdown of Figure 1 are reconstructed from those
intervals afterwards, by the :class:`~repro.engine.result.MachineResult`
that :class:`ReferenceResult` shares with the decoupled machine.
"""

from repro.refarch.result import ReferenceResult
from repro.refarch.simulator import ReferenceSimulator, simulate_reference

__all__ = [
    "ReferenceResult",
    "ReferenceSimulator",
    "simulate_reference",
]
