"""Tests for Table-1 style trace statistics."""

import pytest

from repro.isa.builder import InstructionBuilder
from repro.isa.opcodes import Opcode
from repro.isa.registers import s_reg, v_reg
from repro.trace.generator import TraceBuilder
from repro.trace.statistics import compute_statistics


def _make_trace(vl=50, iterations=4, spill=False):
    builder = InstructionBuilder()
    block = builder.instructions
    builder.set_vector_length(vl)
    builder.vector_load(v_reg(0), "x")
    builder.vector_load(v_reg(1), "y")
    builder.vector_op(Opcode.V_MUL, v_reg(2), [v_reg(0), v_reg(1)])
    if spill:
        builder.vector_store(v_reg(2), "spill_slot", is_spill=True)
        builder.vector_load(v_reg(3), "spill_slot", is_spill=True)
    builder.vector_store(v_reg(2), "z")
    builder.scalar_op(Opcode.S_ADD, s_reg(0), [s_reg(0)])
    builder.branch(s_reg(0))

    trace_builder = TraceBuilder("synthetic")
    for _ in range(iterations):
        trace_builder.append_block(block)
    return trace_builder.build()


class TestComputeStatistics:
    def test_instruction_counts(self):
        stats = compute_statistics(_make_trace(vl=50, iterations=4))
        # Per iteration: 1 set_vl + 1 scalar add + 1 branch = 3 scalar,
        # 2 vloads + 1 vmul + 1 vstore = 4 vector.
        assert stats.scalar_instructions == 12
        assert stats.vector_instructions == 16
        assert stats.vector_operations == 16 * 50
        assert stats.basic_blocks == 4

    def test_vectorization_percent(self):
        stats = compute_statistics(_make_trace(vl=50, iterations=4))
        expected = 100.0 * (16 * 50) / (16 * 50 + 12)
        assert stats.vectorization_percent == pytest.approx(expected)

    def test_average_vector_length(self):
        stats = compute_statistics(_make_trace(vl=50))
        assert stats.average_vector_length == pytest.approx(50.0)

    def test_memory_accounting(self):
        stats = compute_statistics(_make_trace(vl=10, iterations=2))
        assert stats.vector_memory_instructions == 6
        assert stats.scalar_memory_instructions == 0
        assert stats.memory_bytes == 6 * 10 * 8
        assert stats.spill_fraction == 0.0

    def test_spill_fraction(self):
        stats = compute_statistics(_make_trace(vl=10, iterations=2, spill=True))
        # Per iteration: 3 normal vector memory + 2 spill accesses.
        assert stats.spill_memory_instructions == 4
        assert stats.spill_fraction == pytest.approx(4 / 10)

    def test_empty_trace(self):
        trace_builder = TraceBuilder("empty")
        stats = compute_statistics(trace_builder.build())
        assert stats.vectorization_percent == 0.0
        assert stats.average_vector_length == 0.0
        assert stats.spill_fraction == 0.0
        assert stats.total_operations == 0

    def test_vector_length_histogram(self):
        stats = compute_statistics(_make_trace(vl=32, iterations=3))
        assert stats.vector_length_histogram.count(32) == 12
