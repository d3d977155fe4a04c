"""Columnar-trace coverage: record equivalence and column invariants."""

import pytest

from repro.common.errors import TraceError
from repro.isa.instruction import MemoryOperand, make_instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import ELEMENT_SIZE_BYTES, VL_REGISTER, VS_REGISTER, v_reg
from repro.trace.columns import NO_ADDRESS, ColumnarTrace
from repro.trace.record import Trace
from repro.trace.statistics import compute_statistics
from repro.workloads.perfect_club import load_program, program_names

#: Small but non-trivial scale so all six programs stay fast to build.
_SCALE = 0.05


def _program_trace(name):
    return load_program(name).build_trace(scale=_SCALE)


def _records_equal(first, second):
    assert first.sequence == second.sequence
    assert first.instruction.opcode == second.instruction.opcode
    assert first.block_label == second.block_label
    assert first.vector_length == second.vector_length
    assert first.stride_elements == second.stride_elements
    assert first.base_address == second.base_address
    assert first.instruction.destinations == second.instruction.destinations
    assert first.instruction.sources == second.instruction.sources
    assert first.instruction.memory == second.instruction.memory
    assert first.instruction.immediate == second.instruction.immediate


class TestColumnarRecordEquivalence:
    """Columns and record views describe the same stream for every program."""

    @pytest.mark.parametrize("program", program_names())
    def test_record_roundtrip(self, program):
        """Re-encoding the record views reproduces the columns exactly."""
        trace = _program_trace(program)
        rebuilt = Trace(
            name=trace.name,
            records=iter(trace),
            blocks_executed=trace.blocks_executed,
            metadata=dict(trace.metadata),
        )
        assert len(rebuilt) == len(trace)
        for name in ("insn", "seq", "vl", "stride", "addr", "block"):
            assert getattr(rebuilt.columns, name) == getattr(trace.columns, name), name
        assert rebuilt.columns.kind == trace.columns.kind
        assert rebuilt.columns.block_labels == trace.columns.block_labels
        for first, second in zip(trace, rebuilt):
            _records_equal(first, second)

    def test_statistics_match_record_walk(self):
        """The one-pass columnar statistics agree with a record-by-record walk."""
        trace = _program_trace("DYFESM")
        stats = compute_statistics(trace)
        static = [r.instruction for r in trace]
        assert stats.vector_instructions == sum(1 for i in static if i.is_vector)
        assert stats.scalar_instructions == sum(1 for i in static if not i.is_vector)
        assert stats.vector_operations == sum(
            r.vector_length for r in trace if r.instruction.is_vector
        )
        assert stats.memory_bytes == sum(
            (r.vector_length if r.instruction.is_vector else 1) * ELEMENT_SIZE_BYTES
            for r in trace
            if r.instruction.is_memory
        )
        assert stats.spill_memory_instructions == sum(
            1 for i in static if i.is_memory and i.is_spill_access
        )

class TestColumnarTraceInvariants:
    def test_negative_vector_length_rejected(self):
        columns = ColumnarTrace()
        add = make_instruction(Opcode.V_ADD, destinations=[v_reg(0)])
        with pytest.raises(TraceError):
            columns.append(add, sequence=0, vector_length=-1)

    def test_memory_without_address_rejected(self):
        columns = ColumnarTrace()
        load = make_instruction(
            Opcode.V_LOAD, destinations=[v_reg(0)], memory=MemoryOperand(region="x")
        )
        with pytest.raises(TraceError):
            columns.append(load, sequence=0, vector_length=8)

    def test_no_address_sentinel_maps_to_none(self):
        columns = ColumnarTrace()
        add = make_instruction(Opcode.V_ADD, destinations=[v_reg(0)])
        columns.append(add, sequence=0, vector_length=8)
        assert columns.addr[0] == NO_ADDRESS
        assert columns.record(0).base_address is None

    def test_instruction_infos_cached_and_aligned(self):
        trace = _program_trace("ARC2D")
        infos = trace.columns.instruction_infos()
        assert infos is trace.columns.instruction_infos()
        assert len(infos) == len(trace.columns.instructions)
        for info, instruction in zip(infos, trace.columns.instructions):
            assert info.instruction is instruction
            assert info.is_vector == instruction.is_vector
            assert info.opcode_class == instruction.opcode_class

    @pytest.mark.parametrize("name", program_names())
    def test_instruction_info_ids_match_registers(self, name):
        def ids(registers):
            return tuple(register.id for register in registers)

        for info in _program_trace(name).columns.instruction_infos():
            assert info.source_ids == ids(info.sources)
            assert info.scalar_source_ids == ids(info.scalar_sources)
            assert info.destination_ids == ids(info.destinations)
            assert info.destination_id_flags == tuple(
                (register.id, register.is_vector) for register in info.destinations
            )
            assert set(info.data_source_ids) <= set(info.source_ids)
            assert info.data_source_ids == ids(
                register for register in info.sources
                if register not in (VL_REGISTER, VS_REGISTER)
            )
