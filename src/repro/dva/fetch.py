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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional

from repro.common.errors import SimulationError
from repro.isa.opcodes import Opcode, OpcodeClass
from repro.isa.registers import RegisterClass


@unique
class Processor(Enum):
    """The four processors of the decoupled architecture."""

    FETCH = "FP"
    ADDRESS = "AP"
    VECTOR = "VP"
    SCALAR = "SP"


@dataclass(frozen=True)
class RoutingDecision:
    """Where one instruction goes and which QMOV it spawns.

    ``primary`` is the processor that executes the traced instruction itself.
    ``queue_move`` is the hidden QMOV opcode inserted by the FP (``None`` when
    the instruction needs no companion), and ``queue_move_target`` is the
    processor that executes it.
    """

    primary: Processor
    queue_move: Optional[Opcode] = None

    @property
    def queue_move_target(self) -> Optional[Processor]:
        if self.queue_move is None:
            return None
        if self.queue_move in (Opcode.QMOV_V_LOAD, Opcode.QMOV_V_STORE):
            return Processor.VECTOR
        return Processor.SCALAR

    def targets(self) -> tuple[Processor, ...]:
        """Every processor that receives an instruction-queue entry."""
        destinations = []
        if self.primary is not Processor.FETCH:
            destinations.append(self.primary)
        target = self.queue_move_target
        if target is not None:
            destinations.append(target)
        return tuple(destinations)


def route_instruction(instruction) -> RoutingDecision:
    """Routing of one *static* instruction.

    Routing depends only on the static instruction, so the simulator computes
    it once per unique instruction of a trace (via the columnar
    instruction-info table) instead of once per dynamic record.
    """
    opcode_class = instruction.opcode_class

    if instruction.is_queue_move:
        raise SimulationError(
            "QMOV opcodes are generated by the fetch processor and must not "
            "appear in the programmer-visible trace"
        )

    if opcode_class is OpcodeClass.VECTOR_MEMORY:
        queue_move = Opcode.QMOV_V_LOAD if instruction.is_load else Opcode.QMOV_V_STORE
        return RoutingDecision(Processor.ADDRESS, queue_move)

    if opcode_class is OpcodeClass.SCALAR_MEMORY:
        queue_move = Opcode.QMOV_S_LOAD if instruction.is_load else Opcode.QMOV_S_STORE
        return RoutingDecision(Processor.ADDRESS, queue_move)

    if opcode_class is OpcodeClass.VECTOR_COMPUTE:
        return RoutingDecision(Processor.VECTOR)

    if opcode_class is OpcodeClass.VECTOR_CONTROL:
        return RoutingDecision(Processor.FETCH)

    if opcode_class is OpcodeClass.CONTROL:
        if instruction.is_conditional_branch and instruction.sources:
            return RoutingDecision(_owner_of(instruction.sources[0].register_class))
        return RoutingDecision(Processor.FETCH)

    if opcode_class is OpcodeClass.SCALAR_COMPUTE:
        return RoutingDecision(_scalar_home(instruction))

    raise SimulationError(f"unroutable instruction: {instruction}")


def _scalar_home(instruction) -> Processor:
    """Address arithmetic lives on the AP, scalar data computation on the SP."""
    for register in instruction.destinations:
        if register.register_class is RegisterClass.ADDRESS:
            return Processor.ADDRESS
    if instruction.destinations:
        return Processor.SCALAR
    for register in instruction.sources:
        if register.register_class is RegisterClass.ADDRESS:
            return Processor.ADDRESS
    return Processor.SCALAR


def _owner_of(register_class: RegisterClass) -> Processor:
    if register_class is RegisterClass.ADDRESS:
        return Processor.ADDRESS
    return Processor.SCALAR
