"""The register scoreboard and its read rule, pinned through small traces.

:class:`~repro.engine.Scoreboard` is three lists indexed by register id; the
read rule lives in each simulator's issue loop.  So the cases below build
few-instruction traces and check the cycle counts both simulators give
(functional-unit startup 4, vector length 128, one lane, cross-processor
delay 1).
"""

import pytest

from repro.common.errors import SimulationError
from repro.dva.simulator import simulate_decoupled
from repro.engine import Scoreboard
from repro.isa.instruction import Instruction, MemoryOperand
from repro.isa.opcodes import Opcode
from repro.isa.registers import REGISTER_COUNT, a_reg, s_reg, v_reg
from repro.refarch.simulator import simulate_reference
from repro.trace.generator import TraceBuilder


def _trace(*instructions):
    builder = TraceBuilder("scoreboard")
    builder.append_block(instructions)
    return builder.build()


def _op(opcode, destination, *sources):
    return Instruction(opcode, destinations=(destination,), sources=sources)


class TestScoreboardLists:
    def test_unwritten_registers_are_ready_at_cycle_zero(self):
        board = Scoreboard()
        assert board.ready == [0] * REGISTER_COUNT
        assert board.chain_start == [None] * REGISTER_COUNT
        assert board.owner == [None] * REGISTER_COUNT


class TestReferenceReadRule:
    def test_unwritten_sources_do_not_delay_issue(self):
        trace = _trace(_op(Opcode.V_ADD, v_reg(0), v_reg(1), v_reg(2)))
        assert simulate_reference(trace, latency=1).total_cycles == 0 + 4 + 128

    def test_chaining_consumer_starts_on_the_first_element(self):
        trace = _trace(
            _op(Opcode.V_ADD, v_reg(1), v_reg(2), v_reg(3)),
            _op(Opcode.V_ADD, v_reg(4), v_reg(1), v_reg(1)),
        )
        # The consumer issues at the producer's chain start (cycle 4) on FU2.
        assert simulate_reference(trace, latency=1).total_cycles == 4 + 4 + 128

    def test_rewrite_clears_a_stale_chain_start(self):
        # A vector load (not chainable) rewrites v1 after a chainable add: the
        # consumer must wait for the load's last element, not the add's chain.
        trace = _trace(
            _op(Opcode.V_ADD, v_reg(1), v_reg(2), v_reg(3)),
            Instruction(
                Opcode.V_LOAD, destinations=(v_reg(1),), memory=MemoryOperand("x")
            ),
            _op(Opcode.V_ADD, v_reg(4), v_reg(1), v_reg(1)),
        )
        load_ready = 1 + 1 + 128  # bus start 1, latency 1, 128 elements
        assert simulate_reference(trace, latency=1).total_cycles == load_ready + 4 + 128


class TestDecoupledReadRule:
    """The DVA adds owners: a read from another processor pays the delay."""

    def test_unwritten_registers_are_hidden_behind_the_fetch(self):
        # A register never written has no owner, so any processor reads it
        # at 0 + 1 (the one-cycle cross delay) — no later than the fetch
        # hands out the instruction at cycle 1.  The SP finishes at 2.
        for source in (s_reg(1), a_reg(1)):
            trace = _trace(_op(Opcode.S_ADD, s_reg(0), source))
            assert simulate_decoupled(trace, 1).total_cycles == 1 + 1

    def test_remote_read_pays_cross_processor_delay(self):
        produce = _op(Opcode.S_ADD, s_reg(1), s_reg(2))  # SP, ready at 2
        on_address = _trace(produce, _op(Opcode.S_ADD, a_reg(1), s_reg(1)))
        on_scalar = _trace(produce, _op(Opcode.S_ADD, s_reg(3), s_reg(1)))
        # Both consumers are fetched at 1 and queued from 2; the AP reads s1
        # one cycle after it is written, the SP at once.
        assert simulate_decoupled(on_address, 1).total_cycles == 2 + 1 + 1
        assert simulate_decoupled(on_scalar, 1).total_cycles == 2 + 1

    def test_a_produced_value_costs_the_sp_the_same_delay(self):
        produce = _op(Opcode.S_ADD, a_reg(1), a_reg(2))  # AP, ready at 2
        on_scalar = _trace(produce, _op(Opcode.S_ADD, s_reg(3), a_reg(1)))
        on_address = _trace(produce, _op(Opcode.S_ADD, a_reg(3), a_reg(1)))
        assert simulate_decoupled(on_scalar, 1).total_cycles == 2 + 1 + 1
        assert simulate_decoupled(on_address, 1).total_cycles == 2 + 1

    def test_chaining_is_local_only(self):
        produce = _op(Opcode.V_ADD, v_reg(1), v_reg(2), v_reg(3))  # VP, starts at 1
        chained = _trace(produce, _op(Opcode.V_ADD, v_reg(4), v_reg(1), v_reg(1)))
        # The VP consumer starts on the producer's first element (1 + 4).
        assert simulate_decoupled(chained, 1).total_cycles == 5 + 4 + 128
        # A branch on v1 executes on the SP: it waits for the full value
        # (1 + 4 + 128) plus the cross delay, chainable or not.
        branch = Instruction(Opcode.BRANCH, sources=(v_reg(1),))
        remote = _trace(produce, branch)
        assert simulate_decoupled(remote, 1).total_cycles == 133 + 1 + 1


class TestMalformedQueueMoves:
    """Vector memory instructions without their vector register are rejected."""

    def test_vector_load_without_vector_destination(self):
        trace = _trace(Instruction(Opcode.V_LOAD, memory=MemoryOperand("x")))
        with pytest.raises(SimulationError, match="without a vector destination"):
            simulate_decoupled(trace, 1)

    def test_vector_store_without_vector_data_register(self):
        trace = _trace(
            Instruction(Opcode.V_STORE, sources=(a_reg(0),), memory=MemoryOperand("y"))
        )
        with pytest.raises(SimulationError, match="without a vector data register"):
            simulate_decoupled(trace, 1)
