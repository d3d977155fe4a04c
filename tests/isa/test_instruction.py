"""Tests for the static instruction record and the facts it derives."""

from dataclasses import FrozenInstanceError

import pytest

from repro.common.errors import ConfigurationError
from repro.isa import opcodes as op
from repro.isa.instruction import (
    KIND_CONTROL,
    KIND_SCALAR_COMPUTE,
    KIND_SCALAR_MEMORY,
    KIND_VECTOR_COMPUTE,
    KIND_VECTOR_CONTROL,
    KIND_VECTOR_MEMORY,
    Instruction,
    MemoryOperand,
)
from repro.isa.opcodes import Opcode, OpcodeClass
from repro.isa.registers import VL_REGISTER, VS_REGISTER, a_reg, s_reg, v_reg
from repro.workloads.perfect_club import load_program, program_names


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
            Instruction(Opcode.V_LOAD, destinations=(v_reg(0),))

    def test_non_memory_instruction_rejects_memory_operand(self):
        with pytest.raises(ConfigurationError):
            Instruction(
                Opcode.V_ADD,
                destinations=(v_reg(0),),
                sources=(v_reg(1),),
                memory=MemoryOperand(region="a"),
            )

    def test_classification_flags(self):
        load = Instruction(
            Opcode.V_LOAD, destinations=(v_reg(1),), memory=MemoryOperand(region="x")
        )
        assert load.is_vector
        assert load.is_memory
        assert load.is_load
        assert not load.is_store
        assert not load.is_indexed
        assert not load.requires_fu2
        assert not load.may_chain
        assert load.opcode_class is OpcodeClass.VECTOR_MEMORY
        assert load.kind == KIND_VECTOR_MEMORY

        multiply = Instruction(Opcode.V_MUL, destinations=(v_reg(2),), sources=(v_reg(0), v_reg(1)))
        assert multiply.requires_fu2
        assert multiply.is_vector
        assert multiply.may_chain
        assert not multiply.is_memory
        assert multiply.kind == KIND_VECTOR_COMPUTE

        scalar_load = Instruction(
            Opcode.S_LOAD, destinations=(s_reg(0),), memory=MemoryOperand(region="g")
        )
        assert scalar_load.is_load and not scalar_load.is_vector
        assert scalar_load.kind == KIND_SCALAR_MEMORY

    def test_gathers_and_scatters_are_indexed(self):
        gather = Instruction(
            Opcode.V_GATHER,
            destinations=(v_reg(0),),
            memory=MemoryOperand(region="x", indexed=True),
        )
        assert gather.is_indexed and gather.is_load

    def test_vector_stores_chain_but_loads_and_scalar_stores_do_not(self):
        def store(opcode, register):
            return Instruction(opcode, sources=(register,), memory=MemoryOperand(region="y"))

        assert store(Opcode.V_STORE, v_reg(0)).may_chain
        assert store(Opcode.V_SCATTER, v_reg(0)).may_chain
        assert not store(Opcode.S_STORE, s_reg(0)).may_chain

    def test_operands_split_by_register_class(self):
        splat = Instruction(
            Opcode.V_SPLAT, destinations=(v_reg(0),), sources=(s_reg(1), VL_REGISTER)
        )
        assert splat.vector_destinations == (v_reg(0),)
        assert splat.scalar_destinations == ()
        assert splat.vector_sources == ()
        assert splat.scalar_sources == (s_reg(1),)

    def test_register_ids(self):
        add = Instruction(
            Opcode.V_ADD, destinations=(v_reg(2),), sources=(v_reg(0), v_reg(1), VL_REGISTER)
        )
        assert add.source_ids == (v_reg(0).id, v_reg(1).id, VL_REGISTER.id)
        assert add.destination_ids == (v_reg(2).id,)
        assert add.destination_id_flags == ((v_reg(2).id, True),)
        reduce = Instruction(Opcode.V_SUM, destinations=(s_reg(6),), sources=(v_reg(2),))
        assert reduce.destination_id_flags == ((s_reg(6).id, False),)

    def test_data_sources_drop_vl_and_vs(self):
        load = Instruction(
            Opcode.V_LOAD,
            destinations=(v_reg(1),),
            sources=(a_reg(2), VL_REGISTER, VS_REGISTER),
            memory=MemoryOperand(region="x"),
        )
        assert load.source_ids == (a_reg(2).id, VL_REGISTER.id, VS_REGISTER.id)
        assert load.data_source_ids == (a_reg(2).id,)
        assert load.scalar_source_ids == (a_reg(2).id,)

    def test_spill_marker(self):
        spill_store = Instruction(
            Opcode.V_STORE,
            sources=(v_reg(0),),
            memory=MemoryOperand(region="spill0", is_spill=True),
        )
        assert spill_store.is_spill
        normal_store = Instruction(
            Opcode.V_STORE, sources=(v_reg(0),), memory=MemoryOperand(region="data")
        )
        assert not normal_store.is_spill

    def test_derived_facts_stay_out_of_equality_hash_and_repr(self):
        first, second = (
            Instruction(Opcode.V_ADD, destinations=(v_reg(0),), label="k.op0") for _ in range(2)
        )
        assert first is not second and first == second and hash(first) == hash(second)
        assert "source_ids" not in repr(first) and "kind" not in repr(first)
        assert first != Instruction(Opcode.V_ADD, destinations=(v_reg(0),), label="k.op1")

    def test_every_opcode_carries_its_class_kind_and_flags(self):
        kinds = {
            OpcodeClass.SCALAR_COMPUTE: KIND_SCALAR_COMPUTE,
            OpcodeClass.SCALAR_MEMORY: KIND_SCALAR_MEMORY,
            OpcodeClass.VECTOR_COMPUTE: KIND_VECTOR_COMPUTE,
            OpcodeClass.VECTOR_MEMORY: KIND_VECTOR_MEMORY,
            OpcodeClass.VECTOR_CONTROL: KIND_VECTOR_CONTROL,
            OpcodeClass.CONTROL: KIND_CONTROL,
        }
        assert len(set(kinds.values())) == len(OpcodeClass)
        for opcode in Opcode:
            memory = MemoryOperand(region="x") if op.is_memory(opcode) else None
            instruction = Instruction(opcode, memory=memory)
            assert instruction.opcode_class is op.opcode_class(opcode)
            assert instruction.kind == kinds[op.opcode_class(opcode)]
            assert instruction.is_vector == op.is_vector(opcode)
            assert instruction.is_memory == op.is_memory(opcode)
            assert instruction.is_load == op.is_load(opcode)
            assert instruction.is_store == op.is_store(opcode)
            assert instruction.requires_fu2 == op.requires_fu2(opcode)

    def test_derived_facts_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            Instruction(Opcode.S_ADD, kind=KIND_VECTOR_COMPUTE)
        with pytest.raises(TypeError):
            Instruction(Opcode.S_ADD, source_ids=(0,))

    def test_fields_and_derived_facts_are_frozen(self):
        instruction = Instruction(Opcode.S_ADD, destinations=(s_reg(0),))
        with pytest.raises(FrozenInstanceError):
            instruction.label = "relabelled"
        with pytest.raises(FrozenInstanceError):
            instruction.destination_ids = ()
        assert instruction.label == "" and instruction.destination_ids == (s_reg(0).id,)

    def test_equal_operand_lists_share_their_derived_tuples(self):
        first = Instruction(Opcode.V_ADD, destinations=(v_reg(2),), sources=(v_reg(0), v_reg(1)))
        second = Instruction(
            Opcode.V_SUB, destinations=(v_reg(2),), sources=(v_reg(0), v_reg(1)), label="other"
        )
        assert first.source_ids is second.source_ids
        assert first.destination_id_flags is second.destination_id_flags
        assert first.vector_sources is second.vector_sources

    def test_string_rendering(self):
        instruction = Instruction(
            Opcode.V_LOAD,
            destinations=(v_reg(1),),
            memory=MemoryOperand(region="x", stride=2, is_spill=True),
        )
        rendered = str(instruction)
        assert "v_load" in rendered
        assert "v1" in rendered
        assert "x:2!spill" in rendered


@pytest.mark.parametrize("name", program_names())
def test_program_instruction_facts_match_their_operands(name):
    """Every table entry of every program's trace carries its operands' ids."""

    def ids(registers):
        return tuple(register.id for register in registers)

    for instruction in load_program(name).build_trace(scale=0.05).instructions:
        sources, destinations = instruction.sources, instruction.destinations
        assert instruction.source_ids == ids(sources)
        assert instruction.scalar_source_ids == ids(instruction.scalar_sources)
        assert instruction.scalar_sources == tuple(r for r in sources if r.is_scalar)
        assert instruction.vector_sources == tuple(r for r in sources if r.is_vector)
        assert instruction.destination_ids == ids(destinations)
        assert instruction.destination_id_flags == tuple(
            (register.id, register.is_vector) for register in destinations
        )
        assert instruction.data_source_ids == ids(
            register for register in sources if register not in (VL_REGISTER, VS_REGISTER)
        )
