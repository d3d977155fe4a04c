"""Dynamic trace records.

A :class:`DynamicInstruction` is one executed instance of a static
:class:`~repro.isa.instruction.Instruction`, annotated with everything the
simulators need to reproduce its timing: the vector length and stride in
effect, and the base address of memory references.

Since the columnar refactor, :class:`Trace` no longer stores one
:class:`DynamicInstruction` object per executed instruction: the canonical
in-memory form is a :class:`~repro.trace.columns.ColumnarTrace` of parallel
machine-typed arrays, and record objects are materialized views created on
demand (iteration, indexing, the :attr:`Trace.records` property).  Code that
consumes traces record-by-record keeps working unchanged; code that cares
about throughput reads the columns directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.common.errors import TraceError
from repro.isa.instruction import Instruction
from repro.trace.columns import ColumnarTrace


@dataclass(frozen=True)
class DynamicInstruction:
    """One executed instruction instance.

    Attributes:
        instruction: the static instruction that was executed.
        sequence: position of this record in the dynamic instruction stream.
        block_label: label of the basic block the instruction belongs to.
        vector_length: number of elements processed (1 for scalar work).
        stride_elements: vector stride, in elements, for vector memory accesses.
        base_address: byte address of the first element for memory accesses.
    """

    instruction: Instruction
    sequence: int
    block_label: str = ""
    vector_length: int = 1
    stride_elements: int = 1
    base_address: Optional[int] = None

    def __post_init__(self) -> None:
        if self.vector_length < 0:
            raise TraceError("vector length cannot be negative")
        if self.instruction.is_memory and self.base_address is None:
            raise TraceError(
                f"memory instruction {self.instruction} traced without a base address"
            )

    def __str__(self) -> str:
        extra = []
        if self.instruction.is_vector:
            extra.append(f"vl={self.vector_length}")
        if self.instruction.is_memory:
            extra.append(f"addr=0x{self.base_address:x}")
            extra.append(f"stride={self.stride_elements}")
        suffix = f"  ({', '.join(extra)})" if extra else ""
        return f"[{self.sequence}] {self.instruction}{suffix}"


class Trace:
    """A full dynamic execution trace of one program.

    The dynamic stream lives in :attr:`columns`, a
    :class:`~repro.trace.columns.ColumnarTrace`.  Iteration, indexing and the
    :attr:`records` property materialize :class:`DynamicInstruction` views on
    demand, so record-consuming code is unaffected by the storage change;
    per-record appends are encoded straight into the columns.
    """

    __slots__ = ("name", "blocks_executed", "metadata", "columns")

    def __init__(
        self,
        name: str,
        records: Optional[Iterable[DynamicInstruction]] = None,
        blocks_executed: int = 0,
        metadata: Optional[Dict[str, object]] = None,
        columns: Optional[ColumnarTrace] = None,
    ) -> None:
        self.name = name
        self.blocks_executed = blocks_executed
        self.metadata: Dict[str, object] = metadata if metadata is not None else {}
        self.columns = columns if columns is not None else ColumnarTrace()
        if records is not None:
            for record in records:
                self.append(record)

    def append(self, record: DynamicInstruction) -> None:
        """Encode one record view into the columns."""
        self.columns.append(
            record.instruction,
            sequence=record.sequence,
            block_label=record.block_label,
            vector_length=record.vector_length,
            stride_elements=record.stride_elements,
            base_address=record.base_address,
        )

    @property
    def records(self) -> List[DynamicInstruction]:
        """A freshly materialized list of record views (not the storage).

        Mutating the returned list does not alter the trace; use
        :meth:`append` to grow it.  Hot paths should iterate
        ``self.columns`` instead of calling this per pass.
        """
        return list(self.columns.iter_records())

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[DynamicInstruction]:
        return self.columns.iter_records()

    def __getitem__(self, index: int) -> DynamicInstruction:
        return self.columns.record(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        if (
            self.name != other.name
            or self.blocks_executed != other.blocks_executed
            or self.metadata != other.metadata
            or len(self) != len(other)
        ):
            return False
        # Record views are compared streaming, pairwise — never materialized
        # as full lists — so equality of two large traces stays flat-memory
        # and exits on the first difference.
        return all(
            mine == theirs
            for mine, theirs in zip(
                self.columns.iter_records(), other.columns.iter_records()
            )
        )

    def validate(self) -> None:
        """Check internal consistency of the trace.

        Raises :class:`~repro.common.errors.TraceError` when sequence numbers
        are not strictly increasing from zero.
        """
        self.columns.validate(self.name)
