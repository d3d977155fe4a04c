"""The fetch processor's instruction-splitting rules (paper §4.1)."""

import pytest

from repro.common.errors import SimulationError
from repro.dva.fetch import Processor, RoutingDecision, route_instruction
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import make_instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import a_reg, s_reg, v_reg


@pytest.fixture
def emit():
    return InstructionBuilder(BasicBlock("fetch"))


class TestMemoryAccesses:
    def test_vector_load_goes_to_the_ap_with_a_vp_qmov(self, emit):
        decision = route_instruction(emit.vector_load(v_reg(0), "x"))
        assert decision == RoutingDecision(Processor.ADDRESS, Opcode.QMOV_V_LOAD)
        assert decision.queue_move_target is Processor.VECTOR
        assert decision.targets() == (Processor.ADDRESS, Processor.VECTOR)

    def test_vector_store_goes_to_the_ap_with_a_vp_qmov(self, emit):
        decision = route_instruction(emit.vector_store(v_reg(0), "y"))
        assert decision == RoutingDecision(Processor.ADDRESS, Opcode.QMOV_V_STORE)
        assert decision.queue_move_target is Processor.VECTOR

    @pytest.mark.parametrize("indexed", [False, True])
    def test_gathers_and_scatters_route_like_strided_accesses(self, emit, indexed):
        load = route_instruction(emit.vector_load(v_reg(0), "x", indexed=indexed))
        store = route_instruction(emit.vector_store(v_reg(0), "y", indexed=indexed))
        assert load.queue_move is Opcode.QMOV_V_LOAD
        assert store.queue_move is Opcode.QMOV_V_STORE

    def test_scalar_load_goes_to_the_ap_with_an_sp_qmov(self, emit):
        decision = route_instruction(emit.scalar_load(s_reg(0), "x"))
        assert decision == RoutingDecision(Processor.ADDRESS, Opcode.QMOV_S_LOAD)
        assert decision.queue_move_target is Processor.SCALAR

    def test_scalar_store_goes_to_the_ap_with_an_sp_qmov(self, emit):
        decision = route_instruction(emit.scalar_store(s_reg(0), "y"))
        assert decision == RoutingDecision(Processor.ADDRESS, Opcode.QMOV_S_STORE)
        assert decision.targets() == (Processor.ADDRESS, Processor.SCALAR)


class TestComputation:
    @pytest.mark.parametrize("opcode", [Opcode.V_ADD, Opcode.V_MUL])
    def test_vector_computation_goes_to_the_vp_alone(self, emit, opcode):
        decision = route_instruction(emit.vector_op(opcode, v_reg(2), [v_reg(0), v_reg(1)]))
        assert decision == RoutingDecision(Processor.VECTOR)
        assert decision.queue_move_target is None
        assert decision.targets() == (Processor.VECTOR,)

    def test_reduction_to_a_scalar_is_vector_computation(self, emit):
        decision = route_instruction(emit.vector_reduce(Opcode.V_SUM, s_reg(0), v_reg(0)))
        assert decision.primary is Processor.VECTOR

    def test_address_arithmetic_belongs_to_the_ap(self, emit):
        decision = route_instruction(emit.scalar_op(Opcode.S_ADD, a_reg(0), [a_reg(1)]))
        assert decision == RoutingDecision(Processor.ADDRESS)

    def test_scalar_data_computation_belongs_to_the_sp(self, emit):
        decision = route_instruction(emit.scalar_op(Opcode.S_FADD, s_reg(0), [s_reg(1)]))
        assert decision == RoutingDecision(Processor.SCALAR)

    def test_destination_class_decides_over_sources(self, emit):
        # An S register computed from an address register is data: SP.
        decision = route_instruction(emit.scalar_op(Opcode.S_MOV, s_reg(0), [a_reg(1)]))
        assert decision.primary is Processor.SCALAR

    def test_destinationless_scalar_op_goes_where_its_address_source_lives(self, emit):
        on_address = route_instruction(emit.scalar_op(Opcode.S_CMP, None, [a_reg(0)]))
        on_scalar = route_instruction(emit.scalar_op(Opcode.S_CMP, None, [s_reg(0)]))
        assert on_address.primary is Processor.ADDRESS
        assert on_scalar.primary is Processor.SCALAR


class TestControl:
    @pytest.mark.parametrize("setter", ["set_vector_length", "set_vector_stride"])
    def test_vector_control_is_consumed_by_the_fp(self, emit, setter):
        decision = route_instruction(getattr(emit, setter)(8))
        assert decision == RoutingDecision(Processor.FETCH)
        assert decision.targets() == ()

    def test_unconditional_jump_is_consumed_by_the_fp(self, emit):
        assert route_instruction(emit.jump()).primary is Processor.FETCH

    @pytest.mark.parametrize(
        "condition, owner",
        [(a_reg(0), Processor.ADDRESS), (s_reg(0), Processor.SCALAR)],
    )
    def test_conditional_branch_runs_where_its_condition_lives(self, emit, condition, owner):
        assert route_instruction(emit.branch(condition)).primary is owner

    def test_queue_moves_in_the_trace_are_refused(self):
        qmov = make_instruction(Opcode.QMOV_V_LOAD, destinations=(v_reg(0),))
        with pytest.raises(SimulationError, match="QMOV"):
            route_instruction(qmov)
