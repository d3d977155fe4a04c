"""Trace generation from compiled basic blocks.

The :class:`TraceBuilder` plays the role of running a Dixie-instrumented
executable: it walks basic blocks (tuples of static instructions) in
dynamic order, keeps track of the vector
length and vector stride registers, lays program data regions out in a flat
address space, and appends one row per executed instruction to the
:class:`~repro.trace.columns.Trace` columns — instruction-table index,
vector length, stride, base address — with no record object in between.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence

from repro.common.errors import TraceError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import ELEMENT_SIZE_BYTES, VECTOR_REGISTER_LENGTH
from repro.trace.columns import NO_ADDRESS, Trace

#: Version of the trace-generation algorithm.  Any change that alters the
#: dynamic instruction stream a program model produces (instruction order,
#: addresses, vector lengths, region layout, ...) must bump this constant:
#: it is folded into every :mod:`repro.store` cache key, so bumping it
#: invalidates persisted results computed from the old streams.
#: v2: the columnar pipeline — the stream itself is unchanged, but results
#: persisted before the representation change are not served as hits.
TRACE_GENERATOR_VERSION = 2

#: Base of the data segment used by the region allocator.
_DATA_SEGMENT_BASE = 0x1000_0000

#: Base of the (scalar + vector spill) stack segment.
_STACK_SEGMENT_BASE = 0x7000_0000

#: Bytes of address space every region gets.
_REGION_BYTES = 0x10000


class RegionAllocator:
    """Lays out named data regions in a flat byte-addressed space.

    Regions whose name starts with ``spill`` or ``stack`` are placed in a
    separate stack segment, mirroring how compiler spill slots live on the
    stack while array data lives in the static data segment.
    """

    def __init__(self) -> None:
        self._addresses: Dict[str, int] = {}
        self._next_data = _DATA_SEGMENT_BASE
        self._next_stack = _STACK_SEGMENT_BASE

    def base_of(self, region: str) -> int:
        """Return (allocating on first use) the base address of ``region``."""
        base = self._addresses.get(region)
        if base is None:
            if region.startswith("spill") or region.startswith("stack"):
                base = self._next_stack
                self._next_stack += _REGION_BYTES
            else:
                base = self._next_data
                self._next_data += _REGION_BYTES
            self._addresses[region] = base
        return base


class TraceBuilder:
    """Builds a dynamic trace by replaying basic blocks.

    The builder tracks the architectural vector length register (set by
    ``SET_VL``) and assigns a concrete byte address to every memory
    reference.  A record's stride is its memory operand's, so ``SET_VS``
    immediates are checked but feed no record.  Callers control where a
    block's memory references land through ``region_offsets`` — a map from
    region name to an element offset — which is how loop iterations advance
    through their arrays.

    Replay touches the same few hundred static instructions again and again,
    so what a record shares with every other occurrence of its instruction
    (table index, vector-ness, stride, region and its base, the ``SET_VL``
    value) is derived and validated once per static instruction; each record
    then only reads the vector-length state and adds its region offset.
    """

    def __init__(self, name: str) -> None:
        self.trace = Trace(name=name)
        self.allocator = RegionAllocator()
        self._vector_length = VECTOR_REGISTER_LENGTH
        #: ``id(instruction)`` -> its static facts; each entry holds the
        #: instruction itself, so the id cannot be reused while it lives.
        self._static: Dict[int, tuple] = {}
        #: Kernel -> the integer id its invocation marks carry.
        self._kernel_ids: Dict[Hashable, int] = {}
        #: ``blocks_executed`` when the last invocation mark was set.
        self._blocks_at_mark = 0

    # -- architectural state ---------------------------------------------------

    @property
    def vector_length(self) -> int:
        return self._vector_length

    # -- emission ---------------------------------------------------------------

    def mark_invocation(self, kernel: Hashable) -> None:
        """Record that an invocation of ``kernel`` starts at the next row.

        Equal kernels share one id, so a kernel's invocations can be told
        apart from its neighbours' by the id alone.
        """
        kernel_id = self._kernel_ids.setdefault(kernel, len(self._kernel_ids))
        self.trace.marks.append((kernel_id, len(self.trace.insn)))
        self._blocks_at_mark = self.trace.blocks_executed

    def repeat_invocation(self, times: int) -> None:
        """Append ``times`` more copies of the invocation marked last.

        Each copy repeats that invocation's rows, its mark and its blocks.
        The caller guarantees that emitting the invocation again would give
        the same rows: it left the vector-length register as it found it,
        and regions and static facts are fixed after their first use.
        """
        trace = self.trace
        kernel_id, start = trace.marks[-1]
        stop = len(trace.insn)
        for column in (trace.insn, trace.vl, trace.stride, trace.addr):
            rows = column[start:stop]
            for _ in range(times):
                column += rows
        trace.marks += [(kernel_id, stop + copy * (stop - start)) for copy in range(times)]
        trace.blocks_executed += (trace.blocks_executed - self._blocks_at_mark) * times

    def append_block(
        self,
        block: Sequence[Instruction],
        region_offsets: Optional[Dict[str, int]] = None,
    ) -> None:
        """Replay one basic block, emitting a dynamic record per instruction."""
        self.trace.blocks_executed += 1
        offsets = region_offsets or {}
        append_row = self.trace.append_row
        static = self._static
        vector_length = self._vector_length
        try:
            for instruction in block:
                facts = static.get(id(instruction))
                if facts is None:
                    facts = self._static_facts(instruction)
                _, index, is_vector, region, base, stride, set_vl = facts
                if set_vl is not None:
                    vector_length = set_vl
                append_row(
                    index,
                    vector_length if is_vector else 1,
                    stride,
                    NO_ADDRESS
                    if region is None
                    else base + offsets.get(region, 0) * ELEMENT_SIZE_BYTES,
                )
        finally:
            self._vector_length = vector_length

    def _static_facts(self, instruction: Instruction) -> tuple:
        """Validate ``instruction`` and memoize what all its records share."""
        set_vl = None
        if instruction.opcode is Opcode.SET_VL:
            if instruction.immediate is None:
                raise TraceError("SET_VL traced without an immediate vector length")
            if not 0 <= instruction.immediate <= VECTOR_REGISTER_LENGTH:
                raise TraceError(
                    f"SET_VL immediate {instruction.immediate} outside "
                    f"[0, {VECTOR_REGISTER_LENGTH}]"
                )
            set_vl = instruction.immediate
        elif instruction.opcode is Opcode.SET_VS:
            if instruction.immediate is None:
                raise TraceError("SET_VS traced without an immediate stride")
        memory = instruction.memory
        region = None if memory is None else memory.region
        facts = (
            instruction,
            self.trace.intern_instruction(instruction),
            instruction.is_vector,
            region,
            None if region is None else self.allocator.base_of(region),
            memory.stride if instruction.is_vector and instruction.is_memory else 1,
            set_vl,
        )
        self._static[id(instruction)] = facts
        return facts

    # -- results -----------------------------------------------------------------

    def build(self) -> Trace:
        """Return the accumulated trace."""
        return self.trace
