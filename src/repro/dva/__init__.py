"""The decoupled vector architecture (DVA) simulator.

This package models the architecture of paper §4: the instruction stream is
split by a fetch processor (FP) into three streams executed by an address
processor (AP), a vector processor (VP) and a scalar processor (SP), connected
through architectural queues:

* instruction queues (APIQ, VPIQ, SPIQ — 16 entries each by default),
* the vector load data queue AVDQ (AP → VP, 256 vector-register slots),
* store *address* queues (VSAQ for vector stores, SSAQ for scalar stores, 16
  slots each) used by the two-step store mechanism and by dynamic memory
  disambiguation; a vector store's data enters the vector store data queue
  VADQ (VP → AP) in the slot its address took, so one depth sizes both,
* scalar data queues (AP ↔ SP), modelled deep enough never to delay a step.

Stores are performed "behind the back" of the AP once both their address and
their data have reached the queues; loads are disambiguated against every
queued store and force the conflicting prefix of the store queues to drain
before they may access memory.  Optionally, a load that is *identical* to a
queued store is serviced by the bypass unit (§7), which copies the data from
the VADQ to the AVDQ without touching main memory.

The machine is read off a ``dva``-family
:class:`~repro.core.machine.MachineSpec` (lanes, ports, the bypass, the queue
depths, scalar-cache geometry); the queue-move units, their startup and the
cross-processor delay are fixed constants of :mod:`repro.dva.simulator`.

Like the reference simulator, the implementation is event driven: the dynamic
trace is processed once, in program order, and each processor/queue keeps the
timestamps at which its resources become free.  Per-cycle statistics are
reconstructed from the recorded intervals: the unit state breakdown the two
machines share (:class:`~repro.engine.result.MachineResult`) and the AVDQ
occupancy histogram, the coverage of the AVDQ's residency recorder.
"""

from repro.dva.result import DecoupledResult
from repro.dva.simulator import DecoupledSimulator, simulate_decoupled

__all__ = [
    "DecoupledResult",
    "DecoupledSimulator",
    "simulate_decoupled",
]
