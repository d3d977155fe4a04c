"""Tests for the instruction builder."""

from repro.isa.builder import InstructionBuilder
from repro.isa.opcodes import Opcode, OpcodeClass
from repro.isa.registers import VL_REGISTER, VS_REGISTER, s_reg, v_reg


class TestInstructionBuilder:
    def test_instructions_collect_in_emission_order(self):
        builder = InstructionBuilder()
        builder.set_vector_length(64)
        builder.vector_load(v_reg(0), "x")
        builder.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
        builder.vector_store(v_reg(1), "y")
        builder.scalar_op(Opcode.S_ADD, s_reg(0), [s_reg(0)])
        block = builder.instructions
        assert [i.opcode for i in block] == [
            Opcode.SET_VL, Opcode.V_LOAD, Opcode.V_ADD, Opcode.V_STORE, Opcode.S_ADD
        ]
        assert sum(instruction.is_vector for instruction in block) == 3
        assert sum(instruction.is_memory for instruction in block) == 2

    def test_vector_load_and_store_operands(self):
        builder = InstructionBuilder()
        load = builder.vector_load(v_reg(0), "x", stride=3, is_spill=True)
        store = builder.vector_store(v_reg(0), "y", indexed=True)
        assert load.opcode is Opcode.V_LOAD
        assert load.sources == (VL_REGISTER, VS_REGISTER)
        assert load.memory.stride == 3
        assert load.memory.is_spill
        assert store.opcode is Opcode.V_SCATTER
        assert store.memory.indexed

    def test_indexed_load_is_gather(self):
        gather = InstructionBuilder().vector_load(v_reg(0), "x", indexed=True)
        assert gather.opcode is Opcode.V_GATHER

    def test_set_vl_records_immediate(self):
        instruction = InstructionBuilder().set_vector_length(77)
        assert instruction.immediate == 77

    def test_label_prefix_composition(self):
        builder = InstructionBuilder(label_prefix="loop1")
        tagged = builder.set_vector_length(10)
        assert tagged.label == "loop1"
        named = builder.vector_load(v_reg(0), "x", label="load_a")
        assert named.label == "loop1.load_a"

    def test_reduce_and_splat(self):
        builder = InstructionBuilder()
        reduce_insn = builder.vector_reduce(Opcode.V_SUM, s_reg(0), v_reg(1))
        splat = builder.splat(v_reg(2), s_reg(0))
        assert reduce_insn.opcode_class is OpcodeClass.VECTOR_COMPUTE
        assert reduce_insn.scalar_destinations == (s_reg(0),)
        assert splat.opcode is Opcode.V_SPLAT
        assert s_reg(0) in splat.sources

    def test_scalar_memory_and_branch(self):
        builder = InstructionBuilder()
        load = builder.scalar_load(s_reg(1), "stack", is_spill=True)
        store = builder.scalar_store(s_reg(1), "stack")
        branch = builder.branch(s_reg(2))
        jump = builder.jump()
        assert load.opcode_class is OpcodeClass.SCALAR_MEMORY
        assert load.is_load and load.is_spill
        assert store.is_store
        assert branch.opcode is Opcode.BRANCH and branch.sources == (s_reg(2),)
        assert jump.opcode_class is OpcodeClass.CONTROL and not jump.sources
