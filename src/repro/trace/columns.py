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
operand lists and their register ids, which functional unit it needs — is an
attribute the :class:`~repro.isa.instruction.Instruction` derived when it was
built.  One table entry serves every dynamic occurrence, so hot loops read
plain attributes off ``instructions[insn[row]]`` plus integers off the
columns.

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

#: Sentinel stored in the ``addr`` column for records without a memory address.
NO_ADDRESS = -1


class Trace:
    """A full dynamic execution trace of one program, stored as columns.

    Besides the instruction table and the four columns it carries the
    program ``name``, the number of basic blocks executed (paper Table 1),
    the invocation ``marks`` and ``annotations``, where consumers stash
    derived per-trace tables.
    """

    __slots__ = (
        "name",
        "blocks_executed",
        "instructions",
        "insn",
        "vl",
        "stride",
        "addr",
        "marks",
        "annotations",
        "_intern",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.blocks_executed = 0
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
