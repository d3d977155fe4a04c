"""Tests for the static instruction representation."""

import pytest

from repro.common.errors import ConfigurationError
from repro.isa.instruction import MemoryOperand, make_instruction
from repro.isa.opcodes import Opcode, OpcodeClass
from repro.isa.registers import VL_REGISTER, s_reg, v_reg


class TestMemoryOperand:
    def test_requires_region(self):
        with pytest.raises(ConfigurationError):
            MemoryOperand(region="")

    def test_rejects_zero_stride(self):
        with pytest.raises(ConfigurationError):
            MemoryOperand(region="a", stride=0)

    def test_negative_stride_allowed(self):
        operand = MemoryOperand(region="a", stride=-2)
        assert operand.stride == -2


class TestInstruction:
    def test_memory_instruction_requires_memory_operand(self):
        with pytest.raises(ConfigurationError):
            make_instruction(Opcode.V_LOAD, destinations=[v_reg(0)])

    def test_non_memory_instruction_rejects_memory_operand(self):
        with pytest.raises(ConfigurationError):
            make_instruction(
                Opcode.V_ADD,
                destinations=[v_reg(0)],
                sources=[v_reg(1)],
                memory=MemoryOperand(region="a"),
            )

    def test_classification_properties(self):
        load = make_instruction(
            Opcode.V_LOAD,
            destinations=[v_reg(1)],
            memory=MemoryOperand(region="x"),
        )
        assert load.is_vector
        assert load.is_memory
        assert load.is_load
        assert load.is_vector_memory
        assert not load.is_store
        assert load.opcode_class is OpcodeClass.VECTOR_MEMORY

        multiply = make_instruction(
            Opcode.V_MUL, destinations=[v_reg(2)], sources=[v_reg(0), v_reg(1)]
        )
        assert multiply.requires_fu2
        assert multiply.is_vector
        assert not multiply.is_memory

    def test_reads_and_writes(self):
        instruction = make_instruction(
            Opcode.V_ADD, destinations=[v_reg(2)], sources=[v_reg(0), v_reg(1)]
        )
        assert instruction.writes(v_reg(2))
        assert instruction.reads(v_reg(0))
        assert not instruction.reads(v_reg(2))
        assert instruction.vector_destinations() == (v_reg(2),)
        assert instruction.vector_sources() == (v_reg(0), v_reg(1))

    def test_scalar_operand_helpers(self):
        instruction = make_instruction(
            Opcode.V_SPLAT, destinations=[v_reg(0)], sources=[s_reg(1), VL_REGISTER]
        )
        assert instruction.scalar_sources() == (s_reg(1),)
        assert instruction.scalar_destinations() == ()

    def test_spill_marker(self):
        spill_store = make_instruction(
            Opcode.V_STORE,
            sources=[v_reg(0)],
            memory=MemoryOperand(region="spill0", is_spill=True),
        )
        assert spill_store.is_spill_access
        normal_store = make_instruction(
            Opcode.V_STORE,
            sources=[v_reg(0)],
            memory=MemoryOperand(region="data"),
        )
        assert not normal_store.is_spill_access

    def test_with_label(self):
        original = make_instruction(Opcode.S_ADD, destinations=[s_reg(0)])
        relabelled = original.with_label("loop1")
        assert relabelled.label == "loop1"
        assert relabelled.opcode is original.opcode
        assert original.label == ""

    def test_uid_uniqueness(self):
        first = make_instruction(Opcode.S_ADD, destinations=[s_reg(0)])
        second = make_instruction(Opcode.S_ADD, destinations=[s_reg(0)])
        assert first.uid != second.uid

    def test_string_rendering(self):
        instruction = make_instruction(
            Opcode.V_LOAD,
            destinations=[v_reg(1)],
            memory=MemoryOperand(region="x", stride=2, is_spill=True),
        )
        rendered = str(instruction)
        assert "v_load" in rendered
        assert "v1" in rendered
        assert "x:2!spill" in rendered
