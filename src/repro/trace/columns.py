"""The dynamic trace: one program's executed instruction stream, in columns.

A dynamic trace is billions of repetitions of a few hundred *static*
instructions, so storing one Python object per executed instruction wastes
both memory and time.  :class:`Trace` stores the dynamic stream as four
parallel machine-typed columns — exactly what the simulators read:

* ``insn``   — index into the (small) table of unique static instructions,
* ``vl``     — vector length in effect,
* ``stride`` — vector stride in elements,
* ``addr``   — base byte address of memory references (:data:`NO_ADDRESS`
  for non-memory instructions).

Everything a simulator asks *per static instruction* — classification flags,
operand lists and their register ids, which functional unit it needs — is
precomputed once per unique instruction into an :class:`InstructionInfo` and
shared by every dynamic occurrence, so hot loops read plain attributes off a
table entry plus integers off the columns.

Beside the columns, :attr:`Trace.marks` holds one ``(kernel id, start row)``
pair per kernel invocation, in row order: the invocation structure the
issue loops fast-forward over (:mod:`repro.engine.fastforward`).
"""

from __future__ import annotations

import copy
from array import array
from typing import Dict, List, Optional, Tuple

from repro.common.errors import TraceError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpcodeClass
from repro.isa.registers import RegisterClass

#: Sentinel stored in the ``addr`` column for records without a memory address.
NO_ADDRESS = -1

#: One small integer per :class:`OpcodeClass`: :attr:`InstructionInfo.kind`,
#: on which the issue loops dispatch.
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


class InstructionInfo:
    """Everything the simulators ask of one *static* instruction, precomputed.

    One :class:`InstructionInfo` exists per unique instruction of a trace and
    is shared by every dynamic occurrence, so the per-record cost of
    classification drops from a chain of property calls and set-membership
    tests to a single list index.  All attributes are plain data — reading
    them never executes code.
    """

    __slots__ = (
        "instruction",
        "kind",
        "is_vector",
        "is_memory",
        "is_load",
        "is_store",
        "is_indexed",
        "is_spill",
        "requires_fu2",
        "may_chain",
        "vector_destinations",
        "scalar_destinations",
        "vector_sources",
        "scalar_sources",
        "source_ids",
        "scalar_source_ids",
        "data_source_ids",
        "destination_ids",
        "destination_id_flags",
    )

    def __init__(self, instruction: Instruction) -> None:
        self.instruction = instruction
        opcode_class = instruction.opcode_class
        self.kind = _KIND_OF_CLASS[opcode_class]
        self.is_vector = instruction.is_vector
        self.is_memory = instruction.is_memory
        self.is_load = instruction.is_load
        self.is_store = instruction.is_store
        self.is_indexed = instruction.memory is not None and instruction.memory.indexed
        self.is_spill = instruction.is_spill_access
        self.requires_fu2 = instruction.requires_fu2
        # Flexible chaining targets (paper §2.1): vector arithmetic and
        # vector stores may start on a producer's first element.
        self.may_chain = opcode_class is OpcodeClass.VECTOR_COMPUTE or (
            self.is_store and instruction.is_vector_memory
        )
        sources = instruction.sources
        destinations = instruction.destinations
        self.vector_destinations = instruction.vector_destinations()
        self.scalar_destinations = instruction.scalar_destinations()
        self.vector_sources = instruction.vector_sources()
        self.scalar_sources = instruction.scalar_sources()
        # The issue loops index their scoreboard lists by register id.
        self.source_ids = tuple(register.id for register in sources)
        self.scalar_source_ids = tuple(register.id for register in self.scalar_sources)
        # Data sources as the VP sees them: everything except the implicit
        # VL/VS control registers, which the fetch processor resolves.
        self.data_source_ids = tuple(
            register.id
            for register in sources
            if register.register_class
            not in (RegisterClass.VECTOR_LENGTH, RegisterClass.VECTOR_STRIDE)
        )
        self.destination_ids = tuple(register.id for register in destinations)
        # (id, is_vector) pairs: issue rules that chain vector results but
        # not scalar ones read the flag instead of a register property.
        self.destination_id_flags = tuple(
            (register.id, register.is_vector) for register in destinations
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstructionInfo({self.instruction})"


class Trace:
    """A full dynamic execution trace of one program, stored as columns.

    Besides the instruction table and the four columns it carries the
    program ``name``, the number of basic blocks executed (paper Table 1),
    the invocation ``marks``, free-form ``metadata`` (regions, scale, the
    paper's targets) and ``annotations``, where consumers stash derived
    per-trace tables.
    """

    __slots__ = (
        "name",
        "blocks_executed",
        "metadata",
        "instructions",
        "insn",
        "vl",
        "stride",
        "addr",
        "marks",
        "annotations",
        "_intern",
        "_infos",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.blocks_executed = 0
        self.metadata: Dict[str, object] = {}
        self.instructions: List[Instruction] = []
        self.insn = array("q")
        self.vl = array("q")
        self.stride = array("q")
        self.addr = array("q")
        #: ``(kernel id, start row)`` per kernel invocation, in row order; an
        #: invocation runs to the next mark's row (or the end of the trace).
        self.marks: List[Tuple[int, int]] = []
        #: Scratch space for consumers to stash derived per-trace tables
        #: (e.g. the DVA's routing decisions); cleared on structural change.
        self.annotations: Dict[str, object] = {}
        self._intern: Dict[Instruction, int] = {}
        self._infos: Optional[List[InstructionInfo]] = None

    # -- construction ------------------------------------------------------------------

    def intern_instruction(self, instruction: Instruction) -> int:
        """Index of ``instruction`` in the static table, adding it on first use.

        Interning is by value, so equal instructions built as distinct
        objects share one table entry.  Trace generation calls this once per
        static instruction object, not per record.
        """
        index = self._intern.get(instruction)
        if index is None:
            index = len(self.instructions)
            self.instructions.append(instruction)
            self._intern[instruction] = index
            self._infos = None
            self.annotations.clear()
        return index

    def append(
        self,
        instruction: Instruction,
        vector_length: int = 1,
        stride_elements: int = 1,
        base_address: Optional[int] = None,
    ) -> None:
        """Validate one dynamic record, intern its instruction and append it."""
        if vector_length < 0:
            raise TraceError("vector length cannot be negative")
        if instruction.is_memory and base_address is None:
            raise TraceError(
                f"memory instruction {instruction} traced without a base address"
            )
        self.append_row(
            self.intern_instruction(instruction),
            vector_length,
            stride_elements,
            NO_ADDRESS if base_address is None else base_address,
        )

    def append_row(
        self, index: int, vector_length: int, stride_elements: int, address: int
    ) -> None:
        """Append one already-validated record of an interned instruction.

        The one writer of the columns: :meth:`append` calls it per record,
        and trace generation calls it directly with facts it validated once
        per static instruction.
        """
        self.insn.append(index)
        self.vl.append(vector_length)
        self.stride.append(stride_elements)
        self.addr.append(address)

    # -- derived tables ----------------------------------------------------------------

    def instruction_infos(self) -> List[InstructionInfo]:
        """Per-unique-instruction precomputed metadata, aligned with ``instructions``.

        Computed once per trace and cached; every simulation of the trace —
        and, under ``fork``, every worker process — shares the same table.
        """
        if self._infos is None:
            self._infos = [InstructionInfo(insn) for insn in self.instructions]
        return self._infos

    def unmarked(self) -> "Trace":
        """This trace without its invocation marks, sharing everything else.

        The issue loops simulate an unmarked trace row by row, so comparing
        its results with the marked trace's checks the fast-forward.
        """
        clone = copy.copy(self)
        clone.marks = []
        return clone

    def __len__(self) -> int:
        return len(self.insn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, records={len(self.insn)}, "
            f"instructions={len(self.instructions)})"
        )
