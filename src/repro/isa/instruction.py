"""Static instruction representation.

An :class:`Instruction` is a *static* entity: it lives inside a basic block of
a :class:`~repro.isa.program.Program` and names its register operands and, for
memory instructions, a symbolic memory operand.  The dynamic information a
Dixie-style trace would carry (actual vector length, stride and base address
of each executed instance) is attached later by the trace generator in
:mod:`repro.trace`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.isa import opcodes as op
from repro.isa.opcodes import Opcode, OpcodeClass
from repro.isa.registers import Register

_instruction_ids = itertools.count()


@dataclass(frozen=True)
class MemoryOperand:
    """Symbolic description of a memory access.

    ``region`` names the logical array or stack area being accessed, which
    lets the trace generator lay regions out in the address space and lets the
    workload models mark spill traffic (stores that are reloaded shortly
    after).  ``stride`` is measured in elements; the element size in bytes is
    fixed by the ISA.
    """

    region: str
    stride: int = 1
    is_spill: bool = False
    indexed: bool = False

    def __post_init__(self) -> None:
        if not self.region:
            raise ConfigurationError("memory operand requires a region name")
        if self.stride == 0:
            raise ConfigurationError("memory stride of zero is not supported")


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Attributes:
        opcode: the operation performed.
        destinations: registers written by the instruction.
        sources: registers read by the instruction.
        memory: symbolic memory operand for loads/stores, ``None`` otherwise.
        immediate: immediate operand (used by ``SET_VL``/``SET_VS``/``S_LI``).
        label: optional human-readable annotation (loop name, spill marker).
    """

    opcode: Opcode
    destinations: tuple[Register, ...] = ()
    sources: tuple[Register, ...] = ()
    memory: Optional[MemoryOperand] = None
    immediate: Optional[int] = None
    label: str = ""
    uid: int = field(default_factory=lambda: next(_instruction_ids), compare=False)

    def __post_init__(self) -> None:
        if self.is_memory and self.memory is None:
            raise ConfigurationError(
                f"memory instruction {self.opcode.value} requires a memory operand"
            )
        if not self.is_memory and self.memory is not None:
            raise ConfigurationError(
                f"non-memory instruction {self.opcode.value} cannot carry a memory operand"
            )

    # -- classification ----------------------------------------------------

    @property
    def opcode_class(self) -> OpcodeClass:
        return op.opcode_class(self.opcode)

    @property
    def is_vector(self) -> bool:
        return op.is_vector(self.opcode)

    @property
    def is_memory(self) -> bool:
        return op.is_memory(self.opcode)

    @property
    def is_load(self) -> bool:
        return op.is_load(self.opcode)

    @property
    def is_store(self) -> bool:
        return op.is_store(self.opcode)

    @property
    def is_vector_memory(self) -> bool:
        return self.opcode_class is OpcodeClass.VECTOR_MEMORY

    @property
    def is_scalar_memory(self) -> bool:
        return self.opcode_class is OpcodeClass.SCALAR_MEMORY

    @property
    def is_branch(self) -> bool:
        return op.is_branch(self.opcode)

    @property
    def is_conditional_branch(self) -> bool:
        return op.is_conditional_branch(self.opcode)

    @property
    def is_reduction(self) -> bool:
        return op.is_reduction(self.opcode)

    @property
    def requires_fu2(self) -> bool:
        return op.requires_fu2(self.opcode)

    @property
    def is_spill_access(self) -> bool:
        """True when the memory operand is marked as compiler spill traffic."""
        return self.memory is not None and self.memory.is_spill

    # -- operand helpers ----------------------------------------------------

    def reads(self, register: Register) -> bool:
        """True when the instruction reads ``register``."""
        return register in self.sources

    def writes(self, register: Register) -> bool:
        """True when the instruction writes ``register``."""
        return register in self.destinations

    def vector_destinations(self) -> tuple[Register, ...]:
        return tuple(r for r in self.destinations if r.is_vector)

    def vector_sources(self) -> tuple[Register, ...]:
        return tuple(r for r in self.sources if r.is_vector)

    def scalar_destinations(self) -> tuple[Register, ...]:
        return tuple(r for r in self.destinations if r.is_scalar)

    def scalar_sources(self) -> tuple[Register, ...]:
        return tuple(r for r in self.sources if r.is_scalar)

    def with_label(self, label: str) -> "Instruction":
        """Return a copy of the instruction carrying a new label."""
        return Instruction(
            opcode=self.opcode,
            destinations=self.destinations,
            sources=self.sources,
            memory=self.memory,
            immediate=self.immediate,
            label=label,
        )

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        parts = [self.opcode.value]
        operands: list[str] = [str(r) for r in self.destinations]
        operands.extend(str(r) for r in self.sources)
        if self.memory is not None:
            suffix = "!spill" if self.memory.is_spill else ""
            operands.append(f"[{self.memory.region}:{self.memory.stride}{suffix}]")
        if self.immediate is not None:
            operands.append(f"#{self.immediate}")
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)


def make_instruction(
    opcode: Opcode,
    destinations: Sequence[Register] = (),
    sources: Sequence[Register] = (),
    memory: Optional[MemoryOperand] = None,
    immediate: Optional[int] = None,
    label: str = "",
) -> Instruction:
    """Convenience constructor accepting any register sequences."""
    return Instruction(
        opcode=opcode,
        destinations=tuple(destinations),
        sources=tuple(sources),
        memory=memory,
        immediate=immediate,
        label=label,
    )
