"""Tests for dynamic trace records."""

import pytest

from repro.common.errors import TraceError
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import MemoryOperand, make_instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import s_reg, v_reg
from repro.trace.record import DynamicInstruction, Trace
from repro.trace.statistics import compute_statistics


def _vector_load():
    return make_instruction(
        Opcode.V_LOAD,
        destinations=[v_reg(0)],
        memory=MemoryOperand(region="x"),
    )


def _vector_add():
    return make_instruction(
        Opcode.V_ADD, destinations=[v_reg(2)], sources=[v_reg(0), v_reg(1)]
    )


class TestDynamicInstruction:
    def test_memory_record_requires_address(self):
        with pytest.raises(TraceError):
            DynamicInstruction(instruction=_vector_load(), sequence=0)

    def test_negative_vector_length_rejected(self):
        with pytest.raises(TraceError):
            DynamicInstruction(
                instruction=_vector_add(), sequence=0, vector_length=-1
            )

    def test_string_rendering(self):
        record = DynamicInstruction(
            instruction=_vector_load(),
            sequence=7,
            vector_length=64,
            base_address=0x1234,
        )
        rendered = str(record)
        assert "[7]" in rendered
        assert "vl=64" in rendered
        assert "0x1234" in rendered


class TestTrace:
    def test_counts(self):
        block = BasicBlock("b")
        builder = InstructionBuilder(block)
        builder.set_vector_length(50)
        builder.vector_load(v_reg(0), "x")
        builder.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])

        trace = Trace(name="demo")
        trace.append(
            DynamicInstruction(instruction=block.instructions[0], sequence=0)
        )
        trace.append(
            DynamicInstruction(
                instruction=block.instructions[1],
                sequence=1,
                vector_length=50,
                base_address=0x100,
            )
        )
        trace.append(
            DynamicInstruction(
                instruction=block.instructions[2], sequence=2, vector_length=50
            )
        )
        assert len(trace) == 3
        stats = compute_statistics(trace)
        assert stats.vector_instructions == 2
        assert stats.scalar_instructions == 1
        assert stats.vector_operations == 100
        assert stats.memory_instructions == 1
        assert trace[0].sequence == 0

    def test_validate_detects_sequence_gaps(self):
        trace = Trace(name="demo")
        trace.append(
            DynamicInstruction(
                instruction=make_instruction(Opcode.S_ADD, destinations=[s_reg(0)]),
                sequence=3,
            )
        )
        with pytest.raises(TraceError):
            trace.validate()
