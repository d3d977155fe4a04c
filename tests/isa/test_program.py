"""Tests for basic blocks, programs and the instruction builder."""

import pytest

from repro.common.errors import ConfigurationError
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import make_instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import s_reg, v_reg


class TestBasicBlock:
    def test_requires_label(self):
        with pytest.raises(ConfigurationError):
            BasicBlock(label="")

    def test_counts(self):
        block = BasicBlock("body")
        builder = InstructionBuilder(block)
        builder.set_vector_length(64)
        builder.vector_load(v_reg(0), "x")
        builder.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
        builder.vector_store(v_reg(1), "y")
        builder.scalar_op(Opcode.S_ADD, s_reg(0), [s_reg(0)])
        assert len(block) == 5
        assert sum(instruction.is_vector for instruction in block) == 3
        assert sum(not instruction.is_vector for instruction in block) == 2
        assert sum(instruction.is_memory for instruction in block) == 2

    def test_iteration_and_str(self):
        block = BasicBlock("header")
        block.append(make_instruction(Opcode.S_LI, destinations=[s_reg(0)], immediate=5))
        assert [i.opcode for i in block] == [Opcode.S_LI]
        assert "header:" in str(block)


class TestProgram:
    def test_requires_name(self):
        with pytest.raises(ConfigurationError):
            Program(name="")

    def test_add_and_lookup_blocks(self):
        program = Program("demo")
        block = program.new_block("entry")
        assert program.block("entry") is block
        assert program.has_block("entry")
        assert not program.has_block("missing")
        assert program.block_labels == ["entry"]

    def test_duplicate_label_rejected(self):
        program = Program("demo")
        program.new_block("entry")
        with pytest.raises(ConfigurationError):
            program.new_block("entry")

    def test_missing_block_lookup_raises(self):
        program = Program("demo")
        with pytest.raises(ConfigurationError):
            program.block("nope")

    def test_new_block_collects_its_instructions(self):
        program = Program("demo")
        block = program.new_block("entry")
        block.append(make_instruction(Opcode.S_ADD, destinations=[s_reg(0)]))
        block.append(make_instruction(Opcode.S_ADD, destinations=[s_reg(1)]))
        assert [len(block) for block in program] == [2]
        assert len(program) == 1

    def test_blocks_supplied_at_construction_are_indexed(self):
        block = BasicBlock("start")
        program = Program("demo", blocks=[block])
        assert program.block("start") is block


class TestInstructionBuilder:
    def test_vector_load_and_store_operands(self):
        block = BasicBlock("b")
        builder = InstructionBuilder(block)
        load = builder.vector_load(v_reg(0), "x", stride=3, is_spill=True)
        store = builder.vector_store(v_reg(0), "y", indexed=True)
        assert load.opcode is Opcode.V_LOAD
        assert load.memory.stride == 3
        assert load.memory.is_spill
        assert store.opcode is Opcode.V_SCATTER
        assert store.memory.indexed

    def test_indexed_load_is_gather(self):
        block = BasicBlock("b")
        builder = InstructionBuilder(block)
        gather = builder.vector_load(v_reg(0), "x", indexed=True)
        assert gather.opcode is Opcode.V_GATHER

    def test_set_vl_records_immediate(self):
        block = BasicBlock("b")
        builder = InstructionBuilder(block)
        instruction = builder.set_vector_length(77)
        assert instruction.immediate == 77

    def test_label_prefix_composition(self):
        block = BasicBlock("b")
        builder = InstructionBuilder(block, label_prefix="loop1")
        tagged = builder.set_vector_length(10)
        assert tagged.label == "loop1"
        named = builder.vector_load(v_reg(0), "x", label="load_a")
        assert named.label == "loop1.load_a"

    def test_reduce_and_splat(self):
        block = BasicBlock("b")
        builder = InstructionBuilder(block)
        reduce_insn = builder.vector_reduce(Opcode.V_SUM, s_reg(0), v_reg(1))
        splat = builder.splat(v_reg(2), s_reg(0))
        assert reduce_insn.is_reduction
        assert s_reg(0) in reduce_insn.destinations
        assert splat.opcode is Opcode.V_SPLAT
        assert s_reg(0) in splat.sources

    def test_scalar_memory_and_branch(self):
        block = BasicBlock("b")
        builder = InstructionBuilder(block)
        load = builder.scalar_load(s_reg(1), "stack", is_spill=True)
        store = builder.scalar_store(s_reg(1), "stack")
        branch = builder.branch(s_reg(2))
        jump = builder.jump()
        assert load.is_scalar_memory and load.is_load and load.is_spill_access
        assert store.is_store
        assert branch.is_conditional_branch
        assert jump.is_branch and not jump.is_conditional_branch
