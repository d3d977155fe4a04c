"""The fetch processor's instruction-splitting rules (paper §4.1)."""

import pytest

from repro.dva.fetch import (
    AP,
    FP,
    QMOV_NONE,
    QMOV_S_LOAD,
    QMOV_S_STORE,
    QMOV_V_LOAD,
    QMOV_V_STORE,
    SP,
    VP,
    queue_targets,
    route_instruction,
)
from repro.isa.builder import InstructionBuilder
from repro.isa.opcodes import Opcode
from repro.isa.registers import a_reg, s_reg, v_reg


@pytest.fixture
def emit():
    return InstructionBuilder()


class TestMemoryAccesses:
    def test_vector_load_goes_to_the_ap_with_a_vp_qmov(self, emit):
        assert route_instruction(emit.vector_load(v_reg(0), "x")) == (AP, QMOV_V_LOAD)
        assert queue_targets(AP, QMOV_V_LOAD) == (AP, VP)

    def test_vector_store_goes_to_the_ap_with_a_vp_qmov(self, emit):
        assert route_instruction(emit.vector_store(v_reg(0), "y")) == (AP, QMOV_V_STORE)
        assert queue_targets(AP, QMOV_V_STORE) == (AP, VP)

    @pytest.mark.parametrize("indexed", [False, True])
    def test_gathers_and_scatters_route_like_strided_accesses(self, emit, indexed):
        load = route_instruction(emit.vector_load(v_reg(0), "x", indexed=indexed))
        store = route_instruction(emit.vector_store(v_reg(0), "y", indexed=indexed))
        assert (load, store) == ((AP, QMOV_V_LOAD), (AP, QMOV_V_STORE))

    def test_scalar_load_goes_to_the_ap_with_an_sp_qmov(self, emit):
        assert route_instruction(emit.scalar_load(s_reg(0), "x")) == (AP, QMOV_S_LOAD)
        assert queue_targets(AP, QMOV_S_LOAD) == (AP, SP)

    def test_scalar_store_goes_to_the_ap_with_an_sp_qmov(self, emit):
        assert route_instruction(emit.scalar_store(s_reg(0), "y")) == (AP, QMOV_S_STORE)
        assert queue_targets(AP, QMOV_S_STORE) == (AP, SP)


class TestComputation:
    @pytest.mark.parametrize("opcode", [Opcode.V_ADD, Opcode.V_MUL])
    def test_vector_computation_goes_to_the_vp_alone(self, emit, opcode):
        instruction = emit.vector_op(opcode, v_reg(2), [v_reg(0), v_reg(1)])
        assert route_instruction(instruction) == (VP, QMOV_NONE)
        assert queue_targets(VP, QMOV_NONE) == (VP,)

    def test_reduction_to_a_scalar_is_vector_computation(self, emit):
        instruction = emit.vector_reduce(Opcode.V_SUM, s_reg(0), v_reg(0))
        assert route_instruction(instruction) == (VP, QMOV_NONE)

    def test_address_arithmetic_belongs_to_the_ap(self, emit):
        instruction = emit.scalar_op(Opcode.S_ADD, a_reg(0), [a_reg(1)])
        assert route_instruction(instruction) == (AP, QMOV_NONE)

    def test_scalar_data_computation_belongs_to_the_sp(self, emit):
        instruction = emit.scalar_op(Opcode.S_FADD, s_reg(0), [s_reg(1)])
        assert route_instruction(instruction) == (SP, QMOV_NONE)

    def test_destination_class_decides_over_sources(self, emit):
        # An S register computed from an address register is data: SP.
        instruction = emit.scalar_op(Opcode.S_MOV, s_reg(0), [a_reg(1)])
        assert route_instruction(instruction) == (SP, QMOV_NONE)

    def test_destinationless_scalar_op_goes_where_its_address_source_lives(self, emit):
        on_address = route_instruction(emit.scalar_op(Opcode.S_CMP, None, [a_reg(0)]))
        on_scalar = route_instruction(emit.scalar_op(Opcode.S_CMP, None, [s_reg(0)]))
        assert (on_address, on_scalar) == ((AP, QMOV_NONE), (SP, QMOV_NONE))


class TestControl:
    @pytest.mark.parametrize("setter", ["set_vector_length", "set_vector_stride"])
    def test_vector_control_is_consumed_by_the_fp(self, emit, setter):
        assert route_instruction(getattr(emit, setter)(8)) == (FP, QMOV_NONE)
        assert queue_targets(FP, QMOV_NONE) == ()

    def test_unconditional_jump_is_consumed_by_the_fp(self, emit):
        assert route_instruction(emit.jump()) == (FP, QMOV_NONE)

    @pytest.mark.parametrize("condition, owner", [(a_reg(0), AP), (s_reg(0), SP)])
    def test_conditional_branch_runs_where_its_condition_lives(self, emit, condition, owner):
        assert route_instruction(emit.branch(condition)) == (owner, QMOV_NONE)
