"""Tests for trace generation and the region allocator."""

import pytest

from repro.common.errors import TraceError
from repro.core import MachineSpec, fuzz
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import ELEMENT_SIZE_BYTES, VECTOR_REGISTER_LENGTH, s_reg, v_reg
from repro.trace.columns import NO_ADDRESS, Trace
from repro.trace.generator import _REGION_BYTES, RegionAllocator, TraceBuilder
from repro.workloads.perfect_club import load_program, program_names


def _rows(trace):
    """``(instruction, vector length, stride, address)`` per trace record."""
    return [
        (trace.instructions[index], length, stride, address)
        for index, length, stride, address in zip(trace.insn, trace.vl, trace.stride, trace.addr)
    ]


def _simple_block(vl=64, region="x"):
    builder = InstructionBuilder()
    block = builder.instructions
    builder.set_vector_length(vl)
    builder.vector_load(v_reg(0), region)
    builder.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
    builder.vector_store(v_reg(1), "y")
    return block


class TestRegionAllocator:
    def test_regions_are_stable(self):
        allocator = RegionAllocator()
        first = allocator.base_of("a")
        second = allocator.base_of("a")
        assert first == second

    def test_distinct_regions_do_not_overlap(self):
        allocator = RegionAllocator()
        base_a = allocator.base_of("a")
        base_b = allocator.base_of("b")
        assert abs(base_a - base_b) >= _REGION_BYTES

    def test_spill_regions_live_in_stack_segment(self):
        allocator = RegionAllocator()
        data = allocator.base_of("matrix")
        spill = allocator.base_of("spill_loop0")
        assert spill > data


class TestTraceBuilder:
    def test_default_vector_length_is_architectural_maximum(self):
        builder = TraceBuilder("demo")
        assert builder.vector_length == VECTOR_REGISTER_LENGTH

    def test_set_vl_updates_subsequent_records(self):
        builder = TraceBuilder("demo")
        builder.append_block(_simple_block(vl=33))
        trace = builder.build()
        lengths = [length for i, length, _, _ in _rows(trace) if i.is_vector]
        assert lengths == [33, 33, 33]

    @pytest.mark.parametrize("immediate", [None, -1, VECTOR_REGISTER_LENGTH + 1])
    def test_bad_set_vl_raises_on_its_first_occurrence(self, immediate):
        block = (
            Instruction(Opcode.S_ADD, destinations=(s_reg(0),)),
            Instruction(Opcode.SET_VL, immediate=immediate),
        )
        builder = TraceBuilder("demo")
        with pytest.raises(TraceError, match="SET_VL"):
            builder.append_block(block)
        assert len(builder.trace) == 1
        with pytest.raises(TraceError, match="SET_VL"):
            builder.append_block(block[1:])

    def test_replayed_block_picks_up_a_new_vector_length(self):
        emit = InstructionBuilder()
        emit.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
        builder = TraceBuilder("demo")
        for length in (10, 20, 10):
            builder.append_block((Instruction(Opcode.SET_VL, immediate=length),))
            builder.append_block(emit.instructions)
        trace = builder.build()
        adds = [length for i, length, _, _ in _rows(trace) if i.opcode is Opcode.V_ADD]
        assert adds == [10, 20, 10]
        assert builder.vector_length == 10

    def test_set_vs_without_an_immediate_raises(self):
        builder = TraceBuilder("demo")
        with pytest.raises(TraceError, match="SET_VS"):
            builder.append_block((Instruction(Opcode.SET_VS),))
        assert len(builder.trace) == 0

    def test_region_offsets_advance_addresses(self):
        builder = TraceBuilder("demo")
        block = _simple_block()
        builder.append_block(block, region_offsets={"x": 0})
        builder.append_block(block, region_offsets={"x": 64})
        trace = builder.build()
        loads = [address for i, _, _, address in _rows(trace) if i.is_load]
        base = builder.allocator.base_of("x")
        assert loads == [base, base + 64 * ELEMENT_SIZE_BYTES]

    def test_block_counting(self):
        builder = TraceBuilder("demo")
        block = _simple_block()
        for _ in range(5):
            builder.append_block(block)
        trace = builder.build()
        assert trace.blocks_executed == 5
        assert len(trace) == 5 * len(block)

    def test_a_block_is_any_sequence_of_instructions(self):
        block = _simple_block()
        traces = []
        for replay in (tuple(block), list(block)):
            builder = TraceBuilder("demo")
            builder.append_block(replay)
            traces.append(builder.build())
        as_tuple, as_list = traces
        assert _rows(as_tuple) == _rows(as_list)
        assert [i for i, _, _, _ in _rows(as_tuple)] == block

    def test_memory_stride_comes_from_operand(self):
        ib = InstructionBuilder()
        block = ib.instructions
        ib.set_vector_length(16)
        ib.vector_load(v_reg(0), "m", stride=5)
        builder = TraceBuilder("demo")
        builder.append_block(block)
        trace = builder.build()
        strides = [stride for i, _, stride, _ in _rows(trace) if i.is_load]
        assert strides == [5]

    def test_scalar_memory_gets_addresses_too(self):
        ib = InstructionBuilder()
        block = ib.instructions
        ib.scalar_load(s_reg(0), "globals")
        ib.scalar_store(s_reg(0), "globals")
        builder = TraceBuilder("demo")
        builder.append_block(block)
        trace = builder.build()
        addresses = [address for i, _, _, address in _rows(trace) if i.is_memory]
        assert len(addresses) == 2 and NO_ADDRESS not in addresses


def _perfect_club_trace(name):
    return load_program(name).build_trace()


def _kernel_trace(kernel):
    case = fuzz.FuzzCase(
        seed=0,
        kernel=kernel,
        elements=200,
        max_vector_length=64,
        invocations=2,
        latency=1,
        spec=MachineSpec(family="dva"),
    )
    return case.build_trace()


_SOURCES = [(_perfect_club_trace, name) for name in program_names()] + [
    (_kernel_trace, kernel) for kernel in fuzz.KERNELS
]


@pytest.mark.parametrize("build, name", _SOURCES, ids=[name for _, name in _SOURCES])
def test_builder_columns_equal_record_by_record_appends(build, name):
    """The builder's once-per-instruction facts pass per-record validation."""
    built = build(name)
    replayed = Trace(built.name)
    for instruction, length, stride, address in _rows(built):
        replayed.append(instruction, length, stride, None if address == NO_ADDRESS else address)
    for column in ("insn", "vl", "stride", "addr"):
        assert getattr(built, column) == getattr(replayed, column), column
    assert built.instructions == replayed.instructions
