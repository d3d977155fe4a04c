"""Columnar-trace coverage: statistics against the columns, and trace invariants."""

from array import array

import pytest

from repro.common.errors import TraceError
from repro.isa import opcodes as op
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import Instruction, MemoryOperand
from repro.isa.opcodes import Opcode
from repro.isa.registers import ELEMENT_SIZE_BYTES, v_reg
from repro.trace.columns import NO_ADDRESS, Trace
from repro.trace.statistics import compute_statistics
from repro.workloads.perfect_club import load_program

#: Small but non-trivial scale so all six programs stay fast to build.
_SCALE = 0.05


def _program_trace(name):
    return load_program(name).build_trace(scale=_SCALE)


def test_statistics_match_a_walk_over_the_columns():
    """The one-pass statistics agree with a walk over the table and columns.

    The walk classifies each instruction from its opcode and memory operand,
    not from the facts the instruction derived when it was built.
    """
    trace = _program_trace("DYFESM")
    stats = compute_statistics(trace)
    rows = [(trace.instructions[index], length) for index, length in zip(trace.insn, trace.vl)]
    vector = [op.is_vector(i.opcode) for i, _ in rows]
    memory = [i.memory is not None for i, _ in rows]
    assert stats.vector_instructions == sum(vector)
    assert stats.scalar_instructions == len(rows) - sum(vector)
    assert stats.vector_operations == sum(
        length for (_, length), is_vector in zip(rows, vector) if is_vector
    )
    assert stats.memory_bytes == sum(
        (length if is_vector else 1) * ELEMENT_SIZE_BYTES
        for (_, length), is_vector, is_memory in zip(rows, vector, memory)
        if is_memory
    )
    assert stats.spill_memory_instructions == sum(
        1 for i, _ in rows if i.memory is not None and i.memory.is_spill
    )


class TestColumnarTraceInvariants:
    def test_stores_exactly_the_four_columns_the_simulators_read(self):
        trace = _program_trace("TRFD")
        columns = [name for name in Trace.__slots__ if isinstance(getattr(trace, name), array)]
        assert columns == ["insn", "vl", "stride", "addr"]
        assert all(len(getattr(trace, name)) == len(trace) for name in columns)

    def test_negative_vector_length_rejected(self):
        trace = Trace("t")
        add = Instruction(Opcode.V_ADD, destinations=(v_reg(0),))
        with pytest.raises(TraceError):
            trace.append(add, vector_length=-1)
        assert len(trace) == 0

    def test_memory_without_address_rejected(self):
        trace = Trace("t")
        load = Instruction(
            Opcode.V_LOAD, destinations=(v_reg(0),), memory=MemoryOperand(region="x")
        )
        with pytest.raises(TraceError):
            trace.append(load, vector_length=8)
        assert len(trace) == 0

    def test_non_memory_records_carry_the_no_address_sentinel(self):
        trace = Trace("t")
        add = Instruction(Opcode.V_ADD, destinations=(v_reg(0),))
        trace.append(add, vector_length=8)
        assert trace.addr[0] == NO_ADDRESS

    def test_appended_records_feed_the_statistics(self):
        builder = InstructionBuilder()
        builder.set_vector_length(50)
        builder.vector_load(v_reg(0), "x")
        builder.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
        trace = Trace("demo")
        set_vl, load, add = builder.instructions
        trace.append(set_vl)
        trace.append(load, vector_length=50, base_address=0x100)
        trace.append(add, vector_length=50)
        assert len(trace) == 3
        stats = compute_statistics(trace)
        assert stats.vector_instructions == 2
        assert stats.scalar_instructions == 1
        assert stats.vector_operations == 100
        assert stats.memory_instructions == 1

    def test_instruction_table_is_aligned_with_the_insn_column(self):
        trace = _program_trace("ARC2D")
        table = trace.instructions
        # Interned by value: no two entries are equal, and every one is used.
        assert len(set(table)) == len(table)
        assert set(trace.insn) == set(range(len(table)))

    def test_the_table_holds_the_appended_instruction_itself(self):
        trace = Trace("t")
        instruction = Instruction(Opcode.V_MUL, destinations=(v_reg(2),), sources=(v_reg(0),))
        trace.append(instruction, vector_length=8)
        assert trace.instructions[trace.insn[0]] is instruction
        assert trace.instructions[0].requires_fu2

    def test_equal_instructions_share_one_table_entry(self):
        trace = Trace("t")
        first, second = (
            Instruction(Opcode.V_ADD, destinations=(v_reg(0),)) for _ in range(2)
        )
        assert first is not second and first == second
        trace.append(first, vector_length=8)
        trace.append(second, vector_length=8)
        assert trace.instructions == [first]
        assert list(trace.insn) == [0, 0]
