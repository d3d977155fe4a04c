"""Columnar-trace coverage: record equivalence, binary format, error paths."""

import gzip
import struct

import pytest

from repro.common.errors import TraceError
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import MemoryOperand, make_instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import VL_REGISTER, VS_REGISTER, s_reg, v_reg
from repro.trace.columns import NO_ADDRESS, ColumnarTrace
from repro.trace.generator import TraceBuilder
from repro.trace.reader import iter_trace_records, read_trace
from repro.trace.record import Trace
from repro.trace.statistics import compute_statistics
from repro.trace.writer import TRACE_MAGIC, write_trace
from repro.workloads.perfect_club import load_program, program_names

#: Small but non-trivial scale so all six programs stay fast to build.
_SCALE = 0.05


def _program_trace(name):
    return load_program(name).build_trace(scale=_SCALE)


def _records_equal(first, second):
    assert first.sequence == second.sequence
    assert first.opcode == second.opcode
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

    @pytest.mark.parametrize("program", program_names())
    def test_binary_roundtrip(self, program, tmp_path):
        """Write → read of the chunked column format is lossless."""
        trace = _program_trace(program)
        path = write_trace(trace, tmp_path / f"{program}.trc")
        restored = read_trace(path)
        assert restored.name == trace.name
        assert restored.blocks_executed == trace.blocks_executed
        assert len(restored) == len(trace)
        for first, second in zip(trace, restored):
            _records_equal(first, second)
        original_stats = compute_statistics(trace).as_table_row()
        assert compute_statistics(restored).as_table_row() == original_stats

    def test_statistics_match_record_walk(self):
        """The one-pass columnar statistics agree with a record-by-record walk."""
        trace = _program_trace("DYFESM")
        stats = compute_statistics(trace)
        assert stats.vector_instructions == sum(1 for r in trace if r.is_vector)
        assert stats.scalar_instructions == sum(1 for r in trace if not r.is_vector)
        assert stats.vector_operations == sum(
            r.operations for r in trace if r.is_vector
        )
        assert stats.memory_bytes == sum(r.bytes_accessed for r in trace)
        assert stats.spill_memory_instructions == sum(
            1 for r in trace if r.is_memory and r.is_spill_access
        )

    def test_gzip_binary_roundtrip(self, tmp_path):
        trace = _program_trace("TRFD")
        path = write_trace(trace, tmp_path / "trace.trc.gz")
        restored = read_trace(path)
        assert len(restored) == len(trace)
        for first, second in zip(trace, restored):
            _records_equal(first, second)

    def test_streaming_iterator_matches_loaded_trace(self, tmp_path):
        trace = _program_trace("BDNA")
        binary = write_trace(trace, tmp_path / "trace.trc")
        legacy = write_trace(trace, tmp_path / "trace.jsonl", format="jsonl")
        for path in (binary, legacy):
            streamed = list(iter_trace_records(path))
            assert len(streamed) == len(trace)
            for first, second in zip(trace, streamed):
                _records_equal(first, second)


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

    def test_legacy_read_interns_equal_instructions_by_value(self, tmp_path):
        """A JSONL trace (fresh Instruction object per line) still collapses
        to one static-table entry per unique instruction."""
        trace = _program_trace("FLO52")
        path = write_trace(trace, tmp_path / "trace.jsonl", format="jsonl")
        restored = read_trace(path)
        assert len(restored.columns.instructions) == len(trace.columns.instructions)

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


def _small_trace():
    block = BasicBlock("loop")
    builder = InstructionBuilder(block)
    builder.set_vector_length(16)
    builder.vector_load(v_reg(0), "x")
    builder.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
    builder.vector_store(v_reg(1), "y")
    builder.scalar_load(s_reg(0), "globals")
    trace_builder = TraceBuilder("errors")
    trace_builder.append_block(block)
    return trace_builder.build()


class TestReaderErrorPaths:
    def test_truncated_file_raises_explicit_error(self, tmp_path):
        path = write_trace(_small_trace(), tmp_path / "trace.trc")
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        with pytest.raises(TraceError, match="truncated"):
            read_trace(path)

    def test_truncated_header_raises_explicit_error(self, tmp_path):
        path = write_trace(_small_trace(), tmp_path / "trace.trc")
        path.write_bytes(path.read_bytes()[: len(TRACE_MAGIC) + 2])
        with pytest.raises(TraceError, match="truncated"):
            read_trace(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "trace.trc"
        path.write_bytes(b"NOTATRCE" + b"\x00" * 64)
        with pytest.raises(TraceError, match="bad magic"):
            read_trace(path)

    def test_bad_magic_rejected_when_streaming(self, tmp_path):
        path = tmp_path / "trace.trc"
        path.write_bytes(b"NOTATRCE" + b"\x00" * 64)
        with pytest.raises(TraceError, match="bad magic"):
            list(iter_trace_records(path))

    def test_binary_version_mismatch_rejected(self, tmp_path):
        path = write_trace(_small_trace(), tmp_path / "trace.trc")
        data = path.read_bytes()
        offset = len(TRACE_MAGIC)
        (header_length,) = struct.unpack_from("<I", data, offset)
        header = data[offset + 4 : offset + 4 + header_length]
        patched = header.replace(b'"format_version": 2', b'"format_version": 99')
        rewritten = (
            data[:offset]
            + struct.pack("<I", len(patched))
            + patched
            + data[offset + 4 + header_length :]
        )
        path.write_bytes(rewritten)
        with pytest.raises(TraceError, match="version"):
            read_trace(path)

    def test_legacy_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"format_version": 7, "name": "x", "records": 0}\n')
        with pytest.raises(TraceError, match="version"):
            read_trace(path)

    def test_empty_gzip_rejected(self, tmp_path):
        path = tmp_path / "trace.trc.gz"
        with gzip.open(path, "wb"):
            pass
        with pytest.raises(TraceError, match="empty"):
            read_trace(path)

    def test_trailing_data_rejected(self, tmp_path):
        """Extra bytes past the declared record count mean corruption."""
        path = write_trace(_small_trace(), tmp_path / "trace.trc")
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(TraceError, match="more data"):
            read_trace(path)
        with pytest.raises(TraceError, match="more data"):
            list(iter_trace_records(path))

    def test_negative_table_reference_rejected_when_streaming(self, tmp_path):
        """A negative instruction index must not wrap around the table."""
        path = write_trace(_small_trace(), tmp_path / "trace.trc")
        data = bytearray(path.read_bytes())
        offset = len(TRACE_MAGIC)
        (header_length,) = struct.unpack_from("<I", data, offset)
        first_insn = offset + 4 + header_length + 4
        struct.pack_into("<q", data, first_insn, -2)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            read_trace(path)
        with pytest.raises(TraceError):
            list(iter_trace_records(path))

    def test_corrupt_chunk_count_rejected(self, tmp_path):
        """A chunk claiming more records than the header declares is corrupt."""
        path = write_trace(_small_trace(), tmp_path / "trace.trc")
        data = bytearray(path.read_bytes())
        offset = len(TRACE_MAGIC)
        (header_length,) = struct.unpack_from("<I", data, offset)
        chunk_offset = offset + 4 + header_length
        struct.pack_into("<I", data, chunk_offset, 10_000)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="corrupt"):
            read_trace(path)
