"""Columnar-trace coverage: statistics against the columns, and trace invariants."""

from array import array

import pytest

from repro.common.errors import TraceError
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import MemoryOperand, make_instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import ELEMENT_SIZE_BYTES, VL_REGISTER, VS_REGISTER, v_reg
from repro.trace.columns import NO_ADDRESS, Trace
from repro.trace.statistics import compute_statistics
from repro.workloads.perfect_club import load_program, program_names

#: Small but non-trivial scale so all six programs stay fast to build.
_SCALE = 0.05


def _program_trace(name):
    return load_program(name).build_trace(scale=_SCALE)


def test_statistics_match_a_walk_over_the_columns():
    """The one-pass statistics agree with a walk over the table and columns.

    The walk asks the static instructions themselves, not their
    precomputed :class:`~repro.trace.columns.InstructionInfo` entries.
    """
    trace = _program_trace("DYFESM")
    stats = compute_statistics(trace)
    rows = [(trace.instructions[index], length) for index, length in zip(trace.insn, trace.vl)]
    assert stats.vector_instructions == sum(1 for i, _ in rows if i.is_vector)
    assert stats.scalar_instructions == sum(1 for i, _ in rows if not i.is_vector)
    assert stats.vector_operations == sum(length for i, length in rows if i.is_vector)
    assert stats.memory_bytes == sum(
        (length if i.is_vector else 1) * ELEMENT_SIZE_BYTES for i, length in rows if i.is_memory
    )
    assert stats.spill_memory_instructions == sum(
        1 for i, _ in rows if i.is_memory and i.is_spill_access
    )


class TestColumnarTraceInvariants:
    def test_stores_exactly_the_four_columns_the_simulators_read(self):
        trace = _program_trace("TRFD")
        columns = [name for name in Trace.__slots__ if isinstance(getattr(trace, name), array)]
        assert columns == ["insn", "vl", "stride", "addr"]
        assert all(len(getattr(trace, name)) == len(trace) for name in columns)

    def test_negative_vector_length_rejected(self):
        trace = Trace("t")
        add = make_instruction(Opcode.V_ADD, destinations=[v_reg(0)])
        with pytest.raises(TraceError):
            trace.append(add, vector_length=-1)
        assert len(trace) == 0

    def test_memory_without_address_rejected(self):
        trace = Trace("t")
        load = make_instruction(
            Opcode.V_LOAD, destinations=[v_reg(0)], memory=MemoryOperand(region="x")
        )
        with pytest.raises(TraceError):
            trace.append(load, vector_length=8)
        assert len(trace) == 0

    def test_non_memory_records_carry_the_no_address_sentinel(self):
        trace = Trace("t")
        add = make_instruction(Opcode.V_ADD, destinations=[v_reg(0)])
        trace.append(add, vector_length=8)
        assert trace.addr[0] == NO_ADDRESS

    def test_appended_records_feed_the_statistics(self):
        block = BasicBlock("b")
        builder = InstructionBuilder(block)
        builder.set_vector_length(50)
        builder.vector_load(v_reg(0), "x")
        builder.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
        trace = Trace("demo")
        set_vl, load, add = block.instructions
        trace.append(set_vl)
        trace.append(load, vector_length=50, base_address=0x100)
        trace.append(add, vector_length=50)
        assert len(trace) == 3
        stats = compute_statistics(trace)
        assert stats.vector_instructions == 2
        assert stats.scalar_instructions == 1
        assert stats.vector_operations == 100
        assert stats.memory_instructions == 1

    def test_equal_instructions_share_one_table_entry(self):
        trace = Trace("t")
        first, second = (
            make_instruction(Opcode.V_ADD, destinations=[v_reg(0)]) for _ in range(2)
        )
        assert first is not second and first == second
        trace.append(first, vector_length=8)
        trace.append(second, vector_length=8)
        assert trace.instructions == [first]
        assert list(trace.insn) == [0, 0]

    def test_instruction_infos_cached_and_aligned(self):
        trace = _program_trace("ARC2D")
        infos = trace.instruction_infos()
        assert infos is trace.instruction_infos()
        assert len(infos) == len(trace.instructions)
        for info, instruction in zip(infos, trace.instructions):
            assert info.instruction is instruction
            assert info.is_vector == instruction.is_vector

    @pytest.mark.parametrize("name", program_names())
    def test_instruction_info_ids_match_registers(self, name):
        def ids(registers):
            return tuple(register.id for register in registers)

        for info in _program_trace(name).instruction_infos():
            assert info.source_ids == ids(info.instruction.sources)
            assert info.scalar_source_ids == ids(info.scalar_sources)
            assert info.destination_ids == ids(info.instruction.destinations)
            assert info.destination_id_flags == tuple(
                (register.id, register.is_vector) for register in info.instruction.destinations
            )
            assert set(info.data_source_ids) <= set(info.source_ids)
            assert info.data_source_ids == ids(
                register for register in info.instruction.sources
                if register not in (VL_REGISTER, VS_REGISTER)
            )
