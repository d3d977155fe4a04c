"""The fetch processor's instruction-splitting rules (paper §4.1).

The fetch processor reads the sequential, non-decoupled instruction stream and
distributes each instruction:

* memory accessing instructions (scalar and vector) go to the address
  processor, and a hidden QMOV pseudo-instruction is sent to the processor
  that produces or consumes the data (the VP for vector accesses, the SP for
  scalar accesses);
* vector computation goes to the vector processor;
* scalar computation goes to the scalar processor, except address arithmetic
  (instructions whose results live in the address registers), which belongs to
  the address processor;
* vector-length/stride updates and unconditional control transfers are
  consumed by the fetch processor itself;
* conditional branches are executed by whichever processor owns the condition
  register, which then reports the outcome through a branch queue (the FP
  never waits for it because the simulated branch prediction is perfect).

The rules answer in the simulator's small integer codes (:data:`AP` ...
:data:`FP`, :data:`QMOV_NONE` ... :data:`QMOV_S_STORE`), on which its issue
loop dispatches without hashing.
"""

from __future__ import annotations

from typing import Tuple

from repro.common.errors import SimulationError
from repro.isa.opcodes import OpcodeClass
from repro.isa.registers import RegisterClass

#: Processor codes.  They are also the scoreboard's owner codes and the
#: instruction-queue ids of the three queue-backed processors, in
#: ``(APIQ, VPIQ, SPIQ)`` order; the FP keeps no instruction queue.
AP = 0
VP = 1
SP = 2
FP = 3

#: QMOV codes: the hidden companion the FP adds to a memory instruction.
QMOV_NONE = 0
QMOV_V_LOAD = 1
QMOV_V_STORE = 2
QMOV_S_LOAD = 3
QMOV_S_STORE = 4

#: The processor executing each QMOV code (``FP``: no QMOV).
QMOV_PROCESSOR = (FP, VP, VP, SP, SP)


def route_instruction(instruction) -> Tuple[int, int]:
    """Routing of one *static* instruction: ``(primary, qmov)`` codes.

    ``primary`` is the processor that executes the instruction itself and
    ``qmov`` the QMOV the fetch processor adds to it.  Routing depends only
    on the static instruction, so the simulator computes it once per unique
    instruction of a trace (via the columnar instruction-info table) instead
    of once per dynamic record.
    """
    opcode_class = instruction.opcode_class

    if opcode_class is OpcodeClass.VECTOR_MEMORY:
        return AP, (QMOV_V_LOAD if instruction.is_load else QMOV_V_STORE)

    if opcode_class is OpcodeClass.SCALAR_MEMORY:
        return AP, (QMOV_S_LOAD if instruction.is_load else QMOV_S_STORE)

    if opcode_class is OpcodeClass.VECTOR_COMPUTE:
        return VP, QMOV_NONE

    if opcode_class is OpcodeClass.VECTOR_CONTROL:
        return FP, QMOV_NONE

    if opcode_class is OpcodeClass.CONTROL:
        if instruction.is_conditional_branch and instruction.sources:
            return _owner_of(instruction.sources[0].register_class), QMOV_NONE
        return FP, QMOV_NONE

    if opcode_class is OpcodeClass.SCALAR_COMPUTE:
        return _scalar_home(instruction), QMOV_NONE

    raise SimulationError(f"unroutable instruction: {instruction}")


def queue_targets(primary: int, qmov: int) -> Tuple[int, ...]:
    """The processors whose instruction queues receive an entry."""
    return tuple(
        processor for processor in (primary, QMOV_PROCESSOR[qmov]) if processor != FP
    )


def _scalar_home(instruction) -> int:
    """Address arithmetic lives on the AP, scalar data computation on the SP."""
    for register in instruction.destinations:
        if register.register_class is RegisterClass.ADDRESS:
            return AP
    if instruction.destinations:
        return SP
    for register in instruction.sources:
        if register.register_class is RegisterClass.ADDRESS:
            return AP
    return SP


def _owner_of(register_class: RegisterClass) -> int:
    return AP if register_class is RegisterClass.ADDRESS else SP
