"""Trace statistics in the style of Table 1 of the paper.

Table 1 reports, per Perfect Club program: the number of basic blocks
executed, the number of scalar and vector instructions issued, the number of
vector operations performed, the percentage of vectorization and the average
vector length.  :func:`compute_statistics` derives the same quantities (plus a
few the rest of the paper relies on, such as the spill-access fraction used in
Section 7) from a :class:`~repro.trace.columns.Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.trace.columns import Trace


@dataclass
class TraceStatistics:
    """Aggregate statistics of one dynamic trace."""

    name: str
    basic_blocks: int = 0
    scalar_instructions: int = 0
    vector_instructions: int = 0
    vector_operations: int = 0
    scalar_memory_instructions: int = 0
    vector_memory_instructions: int = 0
    vector_memory_operations: int = 0
    spill_memory_instructions: int = 0
    memory_bytes: int = 0
    #: Vector instructions issued at each vector length.
    vector_length_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def total_operations(self) -> int:
        """Scalar instructions each count as one operation (paper Table 1)."""
        return self.scalar_instructions + self.vector_operations

    @property
    def vectorization_percent(self) -> float:
        """Percentage of all operations performed by vector instructions."""
        total = self.total_operations
        if total == 0:
            return 0.0
        return 100.0 * self.vector_operations / total

    @property
    def average_vector_length(self) -> float:
        """Vector operations divided by vector instructions (Table 1, col. 6)."""
        if self.vector_instructions == 0:
            return 0.0
        return self.vector_operations / self.vector_instructions

    @property
    def memory_instructions(self) -> int:
        return self.scalar_memory_instructions + self.vector_memory_instructions

    @property
    def spill_fraction(self) -> float:
        """Fraction of memory instructions that are compiler spill accesses."""
        total = self.memory_instructions
        if total == 0:
            return 0.0
        return self.spill_memory_instructions / total


def compute_statistics(trace: Trace) -> TraceStatistics:
    """Compute :class:`TraceStatistics` in one pass over the trace columns.

    The loop reads the instruction-table index and vector-length columns with
    per-field locals and takes every static fact (vector? memory? spill?)
    from the trace's :class:`~repro.isa.instruction.Instruction` table — no
    record objects are materialized.
    """
    stats = TraceStatistics(name=trace.name, basic_blocks=trace.blocks_executed)
    instructions = trace.instructions
    insn = trace.insn
    lengths = trace.vl
    histogram_counts = stats.vector_length_histogram

    vector_instructions = 0
    vector_operations = 0
    scalar_instructions = 0
    scalar_memory = 0
    vector_memory = 0
    vector_memory_operations = 0
    spill_memory = 0
    memory_elements = 0

    for index in range(len(insn)):
        instruction = instructions[insn[index]]
        if instruction.is_vector:
            length = lengths[index]
            vector_instructions += 1
            vector_operations += length
            histogram_counts[length] = histogram_counts.get(length, 0) + 1
            if instruction.is_memory:
                memory_elements += length
                vector_memory += 1
                vector_memory_operations += length
                if instruction.is_spill:
                    spill_memory += 1
        else:
            scalar_instructions += 1
            if instruction.is_memory:
                memory_elements += 1
                scalar_memory += 1
                if instruction.is_spill:
                    spill_memory += 1

    stats.vector_instructions = vector_instructions
    stats.vector_operations = vector_operations
    stats.scalar_instructions = scalar_instructions
    stats.scalar_memory_instructions = scalar_memory
    stats.vector_memory_instructions = vector_memory
    stats.vector_memory_operations = vector_memory_operations
    stats.spill_memory_instructions = spill_memory
    stats.memory_bytes = memory_elements * ELEMENT_SIZE_BYTES
    return stats
