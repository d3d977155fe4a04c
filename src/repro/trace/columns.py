"""Columnar dynamic traces: the canonical in-memory trace representation.

A dynamic trace is billions of repetitions of a few hundred *static*
instructions, so storing one Python object per executed instruction wastes
both memory and time — every simulator pass pays attribute lookups and
property chains per dynamic record.  :class:`ColumnarTrace` stores the
dynamic stream as parallel machine-typed columns instead:

* ``insn``   — index into the (small) table of unique static instructions,
* ``kind``   — one byte per record: the instruction's :class:`OpcodeClass`,
* ``seq``    — the record's declared sequence number (normally its position),
* ``vl``     — vector length in effect,
* ``stride`` — vector stride in elements,
* ``addr``   — base byte address of memory references (:data:`NO_ADDRESS`
  for non-memory instructions),
* ``block``  — index into the table of basic-block labels.

Everything a simulator asks *per static instruction* — classification flags,
operand lists and their register ids, which functional unit it needs — is
precomputed once per unique instruction into an :class:`InstructionInfo` and
shared by every dynamic occurrence, so hot loops read plain attributes off a
table entry plus integers off column slices.

The legacy one-object-per-record view (:class:`~repro.trace.record.DynamicInstruction`)
is still available through :meth:`ColumnarTrace.record` and
:meth:`ColumnarTrace.iter_records`; it is materialized on demand and never
stored.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional

from repro.common.errors import TraceError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpcodeClass
from repro.isa.registers import RegisterClass

#: Sentinel stored in the ``addr`` column for records without a memory address.
NO_ADDRESS = -1

#: One byte per :class:`OpcodeClass`, the dispatch code of the ``kind`` column.
KIND_SCALAR_COMPUTE = 0
KIND_SCALAR_MEMORY = 1
KIND_VECTOR_COMPUTE = 2
KIND_VECTOR_MEMORY = 3
KIND_VECTOR_CONTROL = 4
KIND_CONTROL = 5
KIND_QUEUE_MOVE = 6

_KIND_OF_CLASS = {
    OpcodeClass.SCALAR_COMPUTE: KIND_SCALAR_COMPUTE,
    OpcodeClass.SCALAR_MEMORY: KIND_SCALAR_MEMORY,
    OpcodeClass.VECTOR_COMPUTE: KIND_VECTOR_COMPUTE,
    OpcodeClass.VECTOR_MEMORY: KIND_VECTOR_MEMORY,
    OpcodeClass.VECTOR_CONTROL: KIND_VECTOR_CONTROL,
    OpcodeClass.CONTROL: KIND_CONTROL,
    OpcodeClass.QUEUE_MOVE: KIND_QUEUE_MOVE,
}

def kind_of(instruction: Instruction) -> int:
    """The one-byte ``kind`` code of an instruction's opcode class."""
    return _KIND_OF_CLASS[instruction.opcode_class]


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
        "opcode",
        "opcode_class",
        "kind",
        "is_vector",
        "is_memory",
        "is_load",
        "is_store",
        "is_vector_memory",
        "is_scalar_memory",
        "is_indexed",
        "is_spill",
        "is_branch",
        "is_conditional_branch",
        "is_queue_move",
        "requires_fu2",
        "may_chain",
        "sources",
        "destinations",
        "vector_destinations",
        "scalar_destinations",
        "vector_sources",
        "scalar_sources",
        "source_ids",
        "scalar_source_ids",
        "data_source_ids",
        "destination_ids",
        "destination_id_flags",
        "immediate",
    )

    def __init__(self, instruction: Instruction) -> None:
        self.instruction = instruction
        self.opcode = instruction.opcode
        self.opcode_class = instruction.opcode_class
        self.kind = _KIND_OF_CLASS[self.opcode_class]
        self.is_vector = instruction.is_vector
        self.is_memory = instruction.is_memory
        self.is_load = instruction.is_load
        self.is_store = instruction.is_store
        self.is_vector_memory = instruction.is_vector_memory
        self.is_scalar_memory = instruction.is_scalar_memory
        self.is_indexed = instruction.memory is not None and instruction.memory.indexed
        self.is_spill = instruction.is_spill_access
        self.is_branch = instruction.is_branch
        self.is_conditional_branch = instruction.is_conditional_branch
        self.is_queue_move = instruction.is_queue_move
        self.requires_fu2 = instruction.requires_fu2
        # Flexible chaining targets (paper §2.1): vector arithmetic and
        # vector stores may start on a producer's first element.
        self.may_chain = (
            self.opcode_class is OpcodeClass.VECTOR_COMPUTE
            or (self.is_store and self.is_vector_memory)
        )
        self.sources = instruction.sources
        self.destinations = instruction.destinations
        self.vector_destinations = instruction.vector_destinations()
        self.scalar_destinations = instruction.scalar_destinations()
        self.vector_sources = instruction.vector_sources()
        self.scalar_sources = instruction.scalar_sources()
        # The issue loops index their scoreboard lists by register id.
        self.source_ids = tuple(register.id for register in self.sources)
        self.scalar_source_ids = tuple(register.id for register in self.scalar_sources)
        # Data sources as the VP sees them: everything except the implicit
        # VL/VS control registers, which the fetch processor resolves.
        self.data_source_ids = tuple(
            register.id
            for register in instruction.sources
            if register.register_class
            not in (RegisterClass.VECTOR_LENGTH, RegisterClass.VECTOR_STRIDE)
        )
        self.destination_ids = tuple(register.id for register in self.destinations)
        # (id, is_vector) pairs: issue rules that chain vector results but
        # not scalar ones read the flag instead of a register property.
        self.destination_id_flags = tuple(
            (register.id, register.is_vector) for register in self.destinations
        )
        self.immediate = instruction.immediate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstructionInfo({self.instruction})"


class ColumnarTrace:
    """Parallel-column storage of one dynamic instruction stream.

    Appends validate the same invariants the legacy record constructor did
    (non-negative vector lengths, memory references carry an address), so a
    columnar trace can never hold a record its object form would have
    rejected.
    """

    __slots__ = (
        "instructions",
        "insn",
        "kind",
        "seq",
        "vl",
        "stride",
        "addr",
        "block",
        "block_labels",
        "annotations",
        "_intern",
        "_value_intern",
        "_block_intern",
        "_infos",
    )

    def __init__(self) -> None:
        self.instructions: List[Instruction] = []
        self.insn = array("q")
        self.kind = bytearray()
        self.seq = array("q")
        self.vl = array("q")
        self.stride = array("q")
        self.addr = array("q")
        self.block = array("q")
        self.block_labels: List[str] = []
        #: Scratch space for consumers to stash derived per-trace tables
        #: (e.g. the DVA's routing decisions); cleared on structural change.
        self.annotations: Dict[str, object] = {}
        self._intern: Dict[int, int] = {}
        self._value_intern: Dict[Instruction, int] = {}
        self._block_intern: Dict[str, int] = {}
        self._infos: Optional[List[InstructionInfo]] = None

    # -- construction ------------------------------------------------------------------

    def intern_instruction(self, instruction: Instruction) -> int:
        """Index of ``instruction`` in the static table, adding it on first use.

        Interning is by object identity first: trace generation replays the
        same static :class:`~repro.isa.instruction.Instruction` objects, so
        the id-keyed fast path avoids hashing instruction contents per
        record.  A distinct-but-equal object (e.g. one parsed per record
        from a legacy JSON-lines trace) falls back to value interning, so
        the table always holds one entry per *unique* instruction.
        """
        index = self._intern.get(id(instruction))
        if index is None:
            index = self._value_intern.get(instruction)
            if index is None:
                index = len(self.instructions)
                self.instructions.append(instruction)
                self._value_intern[instruction] = index
                # The id shortcut is only safe for objects the table keeps
                # alive: a transient equal object could be collected and its
                # id reused by an unrelated instruction.
                self._intern[id(instruction)] = index
                self._invalidate()
        return index

    def intern_block(self, label: str) -> int:
        """Index of ``label`` in the basic-block label table."""
        index = self._block_intern.get(label)
        if index is None:
            index = len(self.block_labels)
            self.block_labels.append(label)
            self._block_intern[label] = index
        return index

    def append(
        self,
        instruction: Instruction,
        sequence: int,
        block_label: str = "",
        vector_length: int = 1,
        stride_elements: int = 1,
        base_address: Optional[int] = None,
    ) -> None:
        """Validate one dynamic record, intern its tables and append it."""
        if vector_length < 0:
            raise TraceError("vector length cannot be negative")
        if instruction.is_memory and base_address is None:
            raise TraceError(
                f"memory instruction {instruction} traced without a base address"
            )
        self.append_row(
            self.intern_instruction(instruction),
            kind_of(instruction),
            sequence,
            vector_length,
            stride_elements,
            NO_ADDRESS if base_address is None else base_address,
            self.intern_block(block_label),
        )

    def append_row(
        self,
        index: int,
        kind: int,
        sequence: int,
        vector_length: int,
        stride_elements: int,
        address: int,
        block: int,
    ) -> None:
        """Append one already-validated record of interned table indices.

        The one writer of the columns: :meth:`append` calls it per record,
        and trace generation calls it directly with facts it validated once
        per static instruction.
        """
        self.insn.append(index)
        self.kind.append(kind)
        self.seq.append(sequence)
        self.vl.append(vector_length)
        self.stride.append(stride_elements)
        self.addr.append(address)
        self.block.append(block)

    def _invalidate(self) -> None:
        self._infos = None
        self.annotations.clear()

    # -- derived tables ----------------------------------------------------------------

    def instruction_infos(self) -> List[InstructionInfo]:
        """Per-unique-instruction precomputed metadata, aligned with ``instructions``.

        Computed once per trace and cached; every simulation of the trace —
        and, under ``fork``, every worker process — shares the same table.
        """
        infos = self._infos
        if infos is None or len(infos) != len(self.instructions):
            infos = [InstructionInfo(insn) for insn in self.instructions]
            self._infos = infos
        return infos

    # -- record views ------------------------------------------------------------------

    def record(self, index: int):
        """Materialize the legacy record view of one dynamic slot."""
        from repro.trace.record import DynamicInstruction

        address = self.addr[index]
        return DynamicInstruction(
            instruction=self.instructions[self.insn[index]],
            sequence=self.seq[index],
            block_label=self.block_labels[self.block[index]],
            vector_length=self.vl[index],
            stride_elements=self.stride[index],
            base_address=None if address == NO_ADDRESS else address,
        )

    def iter_records(self) -> Iterator["DynamicInstruction"]:  # noqa: F821
        """Yield legacy record views one at a time (never stored)."""
        from repro.trace.record import DynamicInstruction

        instructions = self.instructions
        labels = self.block_labels
        for index in range(len(self.insn)):
            address = self.addr[index]
            yield DynamicInstruction(
                instruction=instructions[self.insn[index]],
                sequence=self.seq[index],
                block_label=labels[self.block[index]],
                vector_length=self.vl[index],
                stride_elements=self.stride[index],
                base_address=None if address == NO_ADDRESS else address,
            )

    # -- introspection -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.insn)

    def validate(self, name: str = "") -> None:
        """Raise :class:`TraceError` unless sequence numbers count up from zero."""
        for expected, sequence in enumerate(self.seq):
            if sequence != expected:
                raise TraceError(
                    f"trace {name!r}: record {expected} carries sequence "
                    f"number {sequence}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarTrace(records={len(self.insn)}, "
            f"instructions={len(self.instructions)}, "
            f"blocks={len(self.block_labels)})"
        )
