"""Static instruction representation: the one record from compiler to issue loop.

An :class:`Instruction` is a *static* entity: the compiler emits it into a
basic block (a tuple of instructions) and it names its register operands
and, for memory instructions, a symbolic memory operand.  When it is built
it also derives everything the issue loops ask of it — its kind, its
classification flags, its operand registers by class and their integer ids
— so a trace's instruction table is read as plain attributes.  The dynamic
information a Dixie-style trace would carry (actual vector length, stride
and base address of each executed instance) is attached later by the trace
generator in :mod:`repro.trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.isa import opcodes as op
from repro.isa.opcodes import Opcode, OpcodeClass
from repro.isa.registers import Register

#: One small integer per :class:`OpcodeClass`: :attr:`Instruction.kind`, on
#: which the issue loops dispatch.
KIND_SCALAR_COMPUTE = 0
KIND_SCALAR_MEMORY = 1
KIND_VECTOR_COMPUTE = 2
KIND_VECTOR_MEMORY = 3
KIND_VECTOR_CONTROL = 4
KIND_CONTROL = 5

_KIND_OF_CLASS = {
    OpcodeClass.SCALAR_COMPUTE: KIND_SCALAR_COMPUTE,
    OpcodeClass.SCALAR_MEMORY: KIND_SCALAR_MEMORY,
    OpcodeClass.VECTOR_COMPUTE: KIND_VECTOR_COMPUTE,
    OpcodeClass.VECTOR_MEMORY: KIND_VECTOR_MEMORY,
    OpcodeClass.VECTOR_CONTROL: KIND_VECTOR_CONTROL,
    OpcodeClass.CONTROL: KIND_CONTROL,
}


def _opcode_facts(opcode: Opcode) -> tuple:
    """``(opcode_class, kind, is_vector, is_memory, is_load, is_store,
    requires_fu2, may_chain)`` of ``opcode``."""
    opcode_class = op.opcode_class(opcode)
    is_store = op.is_store(opcode)
    return (
        opcode_class,
        _KIND_OF_CLASS[opcode_class],
        op.is_vector(opcode),
        op.is_memory(opcode),
        op.is_load(opcode),
        is_store,
        op.requires_fu2(opcode),
        # Flexible chaining targets (paper §2.1): vector arithmetic and
        # vector stores may start on a producer's first element.
        opcode_class is OpcodeClass.VECTOR_COMPUTE
        or (is_store and opcode_class is OpcodeClass.VECTOR_MEMORY),
    )


_OPCODE_FACTS = {opcode: _opcode_facts(opcode) for opcode in Opcode}


@lru_cache(maxsize=None)
def _operand_facts(destinations: tuple, sources: tuple) -> tuple:
    """``(vector_destinations, scalar_destinations, vector_sources,
    scalar_sources, source_ids, scalar_source_ids, data_source_ids,
    destination_ids, destination_id_flags)`` of one operand list.

    Cached: the keys are tuples of the few interned registers, so the cache
    holds one entry per operand list the compiler emits.
    """
    scalar_sources = tuple(register for register in sources if register.is_scalar)
    return (
        tuple(register for register in destinations if register.is_vector),
        tuple(register for register in destinations if register.is_scalar),
        tuple(register for register in sources if register.is_vector),
        scalar_sources,
        # The issue loops index their scoreboard lists by register id.
        tuple(register.id for register in sources),
        tuple(register.id for register in scalar_sources),
        # Data sources as the VP sees them: everything except the implicit
        # VL/VS control registers, which the fetch processor resolves.
        tuple(register.id for register in sources if register.is_vector or register.is_scalar),
        tuple(register.id for register in destinations),
        # (id, is_vector) pairs: issue rules that chain vector results but
        # not scalar ones read the flag instead of a register property.
        tuple((register.id, register.is_vector) for register in destinations),
    )


def _derived():
    """A fact derived from the instruction's fields when it is built.

    Kept out of ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__``: two
    instructions are equal when their fields are.
    """
    return field(init=False, repr=False, compare=False)


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


@dataclass(frozen=True, slots=True)
class Instruction:
    """One static instruction and the facts the issue loops read of it.

    Attributes:
        opcode: the operation performed.
        destinations: registers written by the instruction.
        sources: registers read by the instruction.
        memory: symbolic memory operand for loads/stores, ``None`` otherwise.
        immediate: immediate operand (used by ``SET_VL``/``SET_VS``/``S_LI``).
        label: optional human-readable annotation (loop name, spill marker).

    Every other attribute is derived from those six when the instruction is
    built: the opcode's class and its :data:`KIND_* <KIND_SCALAR_COMPUTE>`
    code, the classification flags, the operands split by register class,
    and the operands' register ids (sources; scalar sources; data sources,
    i.e. without VL/VS; destinations; destinations paired with
    ``is_vector``).
    """

    opcode: Opcode
    destinations: tuple[Register, ...] = ()
    sources: tuple[Register, ...] = ()
    memory: Optional[MemoryOperand] = None
    immediate: Optional[int] = None
    label: str = ""

    opcode_class: OpcodeClass = _derived()
    kind: int = _derived()
    is_vector: bool = _derived()
    is_memory: bool = _derived()
    is_load: bool = _derived()
    is_store: bool = _derived()
    requires_fu2: bool = _derived()
    may_chain: bool = _derived()
    is_indexed: bool = _derived()
    is_spill: bool = _derived()
    vector_destinations: tuple[Register, ...] = _derived()
    scalar_destinations: tuple[Register, ...] = _derived()
    vector_sources: tuple[Register, ...] = _derived()
    scalar_sources: tuple[Register, ...] = _derived()
    source_ids: tuple[int, ...] = _derived()
    scalar_source_ids: tuple[int, ...] = _derived()
    data_source_ids: tuple[int, ...] = _derived()
    destination_ids: tuple[int, ...] = _derived()
    destination_id_flags: tuple[tuple[int, bool], ...] = _derived()

    def __post_init__(self) -> None:
        (
            opcode_class, kind, is_vector, is_memory, is_load, is_store, requires_fu2, may_chain
        ) = _OPCODE_FACTS[self.opcode]
        memory = self.memory
        if is_memory and memory is None:
            raise ConfigurationError(
                f"memory instruction {self.opcode.value} requires a memory operand"
            )
        if not is_memory and memory is not None:
            raise ConfigurationError(
                f"non-memory instruction {self.opcode.value} cannot carry a memory operand"
            )
        (
            vector_destinations, scalar_destinations, vector_sources, scalar_sources,
            source_ids, scalar_source_ids, data_source_ids, destination_ids,
            destination_id_flags,
        ) = _operand_facts(self.destinations, self.sources)
        # Frozen: the derived slots are written past the dataclass's guard.
        derive = object.__setattr__
        derive(self, "opcode_class", opcode_class)
        derive(self, "kind", kind)
        derive(self, "is_vector", is_vector)
        derive(self, "is_memory", is_memory)
        derive(self, "is_load", is_load)
        derive(self, "is_store", is_store)
        derive(self, "requires_fu2", requires_fu2)
        derive(self, "may_chain", may_chain)
        derive(self, "is_indexed", is_memory and memory.indexed)
        derive(self, "is_spill", is_memory and memory.is_spill)
        derive(self, "vector_destinations", vector_destinations)
        derive(self, "scalar_destinations", scalar_destinations)
        derive(self, "vector_sources", vector_sources)
        derive(self, "scalar_sources", scalar_sources)
        derive(self, "source_ids", source_ids)
        derive(self, "scalar_source_ids", scalar_source_ids)
        derive(self, "data_source_ids", data_source_ids)
        derive(self, "destination_ids", destination_ids)
        derive(self, "destination_id_flags", destination_id_flags)

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
