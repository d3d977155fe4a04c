"""Tests for the vectorizing compiler."""

import pytest

from repro.common.errors import WorkloadError
from repro.isa.builder import InstructionBuilder
from repro.isa.opcodes import Opcode
from repro.trace.generator import TraceBuilder
from repro.trace.statistics import compute_statistics
from repro.isa.registers import VECTOR_REGISTER_LENGTH, v_reg
from repro.workloads.compiler import CompiledKernel, VectorizingCompiler
from repro.workloads.kernel import LoopKernel, VectorStream
from repro.workloads.perfect_club import load_program
from repro.workloads import synthetic


def _compile(kernel):
    compiler = VectorizingCompiler()
    return compiler, compiler.compile(kernel)


class TestCompilation:
    def test_one_block_per_distinct_strip_length(self):
        kernel = LoopKernel(name="k", elements=300, max_vector_length=128, fu_any_ops=1)
        _, compiled = _compile(kernel)
        assert sorted(compiled.blocks) == [44, 128]
        assert compiled.block_for_length(128) is not compiled.block_for_length(44)

    def test_blocks_are_tuples_kept_by_strip_label(self):
        kernel = LoopKernel(name="k", elements=300, max_vector_length=128, fu_any_ops=1)
        compiler, compiled = _compile(kernel)
        assert sorted(compiler.blocks) == ["k.strip128", "k.strip44"]
        for length in (128, 44):
            block = compiler.blocks[f"k.strip{length}"]
            assert isinstance(block, tuple)
            assert compiled.block_for_length(length) is block

    def test_recompiling_a_kernel_reuses_its_blocks(self):
        kernel = LoopKernel(name="k", elements=300, max_vector_length=128, fu2_ops=2)
        compiler, first = _compile(kernel)
        second = compiler.compile(kernel)
        assert len(compiler.blocks) == 2
        for length in (128, 44):
            assert second.block_for_length(length) is first.block_for_length(length)

    def test_unknown_strip_length_rejected(self):
        kernel = LoopKernel(name="k", elements=128, fu_any_ops=1)
        _, compiled = _compile(kernel)
        with pytest.raises(WorkloadError):
            compiled.block_for_length(99)

    def test_block_starts_with_set_vl(self):
        kernel = synthetic.daxpy(elements=200, max_vector_length=100)
        _, compiled = _compile(kernel)
        block = compiled.block_for_length(100)
        assert block[0].opcode is Opcode.SET_VL
        assert block[0].immediate == 100

    def test_instruction_counts_match_kernel_estimates(self):
        kernel = LoopKernel(
            name="counts",
            elements=64,
            loads=(VectorStream("x"), VectorStream("y")),
            stores=(VectorStream("z"),),
            fu_any_ops=3,
            fu2_ops=2,
            vector_spill_pairs=1,
            scalar_spill_pairs=1,
            address_ops=4,
            scalar_ops=3,
            scalar_loads=1,
            scalar_stores=1,
            reduction=True,
            uses_scalar_operand=True,
        )
        _, compiled = _compile(kernel)
        block = compiled.block_for_length(64)
        vector = sum(instruction.is_vector for instruction in block)
        # 3 memory streams + 3+2 compute + reduction + splat + 4 per spill pair.
        assert vector == 3 + 5 + 1 + 1 + 4
        # set_vl + 4 addr + 3 scalar + 1 load + 1 store + 2 spill + 3 loop
        # control + 1 reduction accumulate.
        assert len(block) - vector == 1 + 4 + 3 + 1 + 1 + 2 + 3 + 1

    def test_fu2_only_ops_emitted(self):
        kernel = LoopKernel(
            name="k", elements=64, loads=(VectorStream("x"),), fu_any_ops=1, fu2_ops=2
        )
        _, compiled = _compile(kernel)
        opcodes = [i.opcode for i in compiled.block_for_length(64)]
        assert opcodes.count(Opcode.V_MUL) == 2

    def test_strided_stream_toggles_vector_stride(self):
        kernel = LoopKernel(
            name="k", elements=64, loads=(VectorStream("m", stride=5),), fu_any_ops=1
        )
        _, compiled = _compile(kernel)
        opcodes = [i.opcode for i in compiled.block_for_length(64)]
        assert opcodes.count(Opcode.SET_VS) == 2
        load = next(i for i in compiled.block_for_length(64) if i.opcode is Opcode.V_LOAD)
        assert load.memory.stride == 5

    def test_indexed_streams_use_gather_scatter(self):
        kernel = synthetic.gather_scatter(elements=64)
        _, compiled = _compile(kernel)
        opcodes = [i.opcode for i in compiled.block_for_length(64)]
        assert Opcode.V_GATHER in opcodes
        assert Opcode.V_SCATTER in opcodes

    def test_reduction_emits_vsum_and_accumulate(self):
        kernel = synthetic.reduction(elements=64)
        _, compiled = _compile(kernel)
        opcodes = [i.opcode for i in compiled.block_for_length(64)]
        assert Opcode.V_SUM in opcodes
        assert Opcode.S_FADD in opcodes

    def test_carried_reduction_emits_cross_processor_move(self):
        kernel = synthetic.reduction(elements=64, carried=True)
        _, compiled = _compile(kernel)
        block = compiled.block_for_length(64)
        moves = [i for i in block if i.opcode is Opcode.S_MOV]
        assert moves, "carried reduction must forward the accumulator to addressing"
        assert moves[0].sources[0].register_class.value == "s"
        assert moves[0].destinations[0].register_class.value == "a"

    def test_spill_pair_store_and_reload_same_region(self):
        kernel = synthetic.spill_heavy(elements=64, spill_pairs=1)
        _, compiled = _compile(kernel)
        block = compiled.block_for_length(64)
        spill_accesses = [i for i in block if i.is_spill]
        assert len(spill_accesses) == 2
        store, load = spill_accesses
        assert store.is_store and load.is_load
        assert store.memory.region == load.memory.region

    def test_load_use_distance_defers_load_consumption(self):
        kernel = LoopKernel(
            name="k",
            elements=64,
            loads=(VectorStream("x"),),
            fu_any_ops=6,
            load_use_distance=3,
        )
        _, compiled = _compile(kernel)
        block = compiled.block_for_length(64)
        load = next(i for i in block if i.opcode is Opcode.V_LOAD)
        loaded_register = load.destinations[0]
        compute = [
            i
            for i in block
            if i.is_vector and not i.is_memory and i.opcode is not Opcode.V_SPLAT
        ]
        early = compute[: kernel.load_use_distance]
        assert all(loaded_register not in op.sources for op in early)
        later = compute[kernel.load_use_distance:]
        assert any(loaded_register in op.sources for op in later)

    def test_same_compiler_accumulates_program(self):
        compiler = VectorizingCompiler()
        compiler.compile(synthetic.daxpy(elements=64))
        compiler.compile(synthetic.stream_triad(elements=64))
        labels = list(compiler.blocks)
        assert any(label.startswith("daxpy") for label in labels)
        assert any(label.startswith("stream_triad") for label in labels)


class TestEmission:
    def test_emit_invocation_covers_all_elements(self):
        kernel = synthetic.daxpy(elements=300, max_vector_length=128)
        _, compiled = _compile(kernel)
        builder = TraceBuilder("demo")
        compiled.emit_invocation(builder)
        trace = builder.build()
        loads = [
            length
            for index, length in zip(trace.insn, trace.vl)
            if trace.instructions[index].opcode is Opcode.V_LOAD
        ]
        # Two load streams, three strips each.
        assert len(loads) == 6
        assert sum(loads) == 2 * 300

    def test_stream_addresses_advance_between_strips(self):
        kernel = synthetic.daxpy(elements=256, max_vector_length=128)
        _, compiled = _compile(kernel)
        builder = TraceBuilder("demo")
        compiled.emit_invocation(builder)
        trace = builder.build()
        x_loads = [
            address
            for index, address in zip(trace.insn, trace.addr)
            if trace.instructions[index].is_load
            and trace.instructions[index].memory.region == "daxpy.x"
        ]
        assert len(x_loads) == 2
        assert x_loads[1] == x_loads[0] + 128 * 8

    def test_spill_addresses_repeat_within_iteration(self):
        kernel = synthetic.spill_heavy(elements=256, max_vector_length=128, spill_pairs=1)
        _, compiled = _compile(kernel)
        builder = TraceBuilder("demo")
        compiled.emit_invocation(builder)
        trace = builder.build()
        spills = [
            address
            for index, address in zip(trace.insn, trace.addr)
            if trace.instructions[index].is_spill and trace.instructions[index].is_vector
        ]
        assert len(spills) == 4  # store+reload per strip, two strips
        assert spills[0] == spills[1]
        assert spills[2] == spills[3]

    def test_emit_program_repeats_invocations(self):
        kernel = synthetic.daxpy(elements=128)
        _, compiled = _compile(kernel)
        builder = TraceBuilder("demo")
        compiled.emit_program(builder, 2)
        trace = builder.build()
        assert trace.blocks_executed == 2

    def test_trace_statistics_reflect_kernel_shape(self):
        kernel = synthetic.stream_triad(elements=512, max_vector_length=128)
        _, compiled = _compile(kernel)
        builder = TraceBuilder("demo")
        compiled.emit_invocation(builder)
        stats = compute_statistics(builder.build())
        assert stats.average_vector_length == pytest.approx(128.0)
        assert stats.vector_memory_instructions == 3 * 4


def _emit_each(compiled, builder, invocations):
    """``emit_program`` as a plain loop of ``emit_invocation``."""
    for _ in range(invocations):
        compiled.emit_invocation(builder)


def _stream(trace):
    return (
        trace.instructions,
        trace.insn,
        trace.vl,
        trace.stride,
        trace.addr,
        trace.marks,
        trace.blocks_executed,
    )


class TestEmitOnce:
    """``emit_program`` copies repeated invocations instead of emitting them."""

    @pytest.mark.parametrize("scale", [0.1, 1, 4, 16])
    @pytest.mark.parametrize("program", ["ARC2D", "BDNA", "DYFESM", "FLO52", "SPEC77", "TRFD"])
    def test_programs_match_a_loop_of_emit_invocation(self, program, scale, monkeypatch):
        copied = load_program(program).build_trace(scale)
        monkeypatch.setattr(CompiledKernel, "emit_program", _emit_each)
        emitted = load_program(program).build_trace(scale)
        assert _stream(copied) == _stream(emitted)

    def test_a_first_invocation_that_changes_the_vector_length(self):
        # The block reads VL before it sets it, so its first invocation sees
        # the register's initial 128 and every later one the 64 it leaves.
        kernel = LoopKernel(name="k", elements=128, fu_any_ops=1)
        _, compiled = _compile(kernel)
        emit = InstructionBuilder()
        emit.vector_op(Opcode.V_ADD, v_reg(0), [v_reg(1), v_reg(2)])
        emit.set_vector_length(64)
        compiled.blocks[128] = tuple(emit.instructions)
        copied = TraceBuilder("demo")
        compiled.emit_program(copied, 4)
        emitted = TraceBuilder("demo")
        _emit_each(compiled, emitted, 4)
        assert _stream(copied.build()) == _stream(emitted.build())
        assert list(copied.trace.vl) == [VECTOR_REGISTER_LENGTH, 1] + [64, 1] * 3
        assert copied.trace.marks == [(0, 0), (0, 2), (0, 4), (0, 6)]
        assert copied.trace.blocks_executed == 4
