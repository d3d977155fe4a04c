"""Unit tests for the reference architecture simulator."""

from repro.isa.opcodes import Opcode
from repro.isa.registers import s_reg, v_reg
from repro.core import MachineSpec
from repro.refarch import simulate_reference
from repro.trace.generator import TraceBuilder


class TestScalarOnly:
    def test_one_cycle_per_scalar_instruction(self, trace_from_block):
        def emit(b):
            for index in range(10):
                b.scalar_op(Opcode.S_ADD, s_reg(index % 4), [s_reg((index + 1) % 4)])

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=50)
        # 10 instructions issue at cycles 0..9; the last completes at cycle 10.
        assert result.total_cycles == 10
        assert result.scalar_instructions == 10
        assert result.vector_instructions == 0
        assert result.port_busy.busy_time() == 0

    def test_dependent_scalars_still_one_per_cycle(self, trace_from_block):
        def emit(b):
            b.scalar_op(Opcode.S_LI, s_reg(0), immediate=1)
            for _ in range(5):
                b.scalar_op(Opcode.S_ADD, s_reg(0), [s_reg(0)])

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=1)
        # A one-cycle producer is always ready by the time the next
        # instruction dispatches, so the chain still issues one per cycle.
        assert result.total_cycles == 6


class TestVectorMemoryTiming:
    def test_single_load_completion(self, trace_from_block):
        def emit(b):
            b.set_vector_length(64)
            b.vector_load(v_reg(0), "x")
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=30)
        # set_vl at 0, load issues at 1, bus [1, 65), data at 1+30+64 = 95,
        # add issues at 95 and completes at 95 + 4 + 64.
        assert result.total_cycles == 95 + 4 + 64

    def test_no_load_chaining_by_default(self, trace_from_block):
        def emit(b):
            b.set_vector_length(32)
            b.vector_load(v_reg(0), "x")
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])

        trace = trace_from_block(emit)
        base = simulate_reference(trace, latency=10)
        chained = simulate_reference(
            trace, latency=10, spec=MachineSpec(family="ref", chaining=True)
        )
        assert chained.total_cycles < base.total_cycles

    def test_two_loads_serialize_on_port(self, trace_from_block):
        def emit(b):
            b.set_vector_length(50)
            b.vector_load(v_reg(0), "x")
            b.vector_load(v_reg(1), "y")

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=20)
        assert result.port_busy.busy_time() == 100
        # Second load starts only when the port frees: 1 + 50 = 51,
        # completes at 51 + 20 + 50.
        assert result.total_cycles == 51 + 20 + 50

    def test_store_does_not_pay_latency(self, trace_from_block):
        def emit(b):
            b.set_vector_length(40)
            b.vector_store(v_reg(0), "out")

        trace = trace_from_block(emit)
        low = simulate_reference(trace, latency=1)
        high = simulate_reference(trace, latency=100)
        assert low.total_cycles == high.total_cycles

    def test_memory_traffic_accounting(self, trace_from_block):
        def emit(b):
            b.set_vector_length(16)
            b.vector_load(v_reg(0), "x")
            b.vector_store(v_reg(0), "y")

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=1)
        assert result.memory_traffic_bytes == 2 * 16 * 8


class TestChaining:
    def test_fu_to_fu_chaining(self, trace_from_block):
        def emit(b):
            b.set_vector_length(100)
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
            b.vector_op(Opcode.V_SUB, v_reg(2), [v_reg(1), v_reg(0)])

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=1)
        # First op issues at 1, second chains at 1 + startup(4) = 5 and
        # completes at 5 + 4 + 100 = 109.
        assert result.total_cycles == 109

    def test_store_chains_from_functional_unit(self, trace_from_block):
        def emit(b):
            b.set_vector_length(60)
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
            b.vector_store(v_reg(1), "out")

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=1)
        # Add issues at 1; store chains at 5, occupies the port until 65.
        assert result.port_busy.merged_pairs()[0][0] == 5
        assert result.total_cycles == 65

    def test_reduction_result_not_chainable(self, trace_from_block):
        def emit(b):
            b.set_vector_length(30)
            b.vector_reduce(Opcode.V_SUM, s_reg(0), v_reg(0))
            b.scalar_op(Opcode.S_FADD, s_reg(1), [s_reg(0)])

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=1)
        # V_SUM issues at 1, completes at 1 + 4 + 30 = 35; the scalar add
        # cannot chain and issues at 35, completing at 36.
        assert result.total_cycles == 36


class TestFunctionalUnits:
    def test_fu2_only_operations_use_fu2(self, trace_from_block):
        def emit(b):
            b.set_vector_length(20)
            b.vector_op(Opcode.V_MUL, v_reg(1), [v_reg(0), v_reg(0)])
            b.vector_op(Opcode.V_MUL, v_reg(2), [v_reg(0), v_reg(0)])

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=1)
        assert result.fu2_busy.busy_time() == 40
        assert result.fu1_busy.busy_time() == 0

    def test_independent_ops_use_both_units(self, trace_from_block):
        def emit(b):
            b.set_vector_length(80)
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
            b.vector_op(Opcode.V_SUB, v_reg(2), [v_reg(0), v_reg(0)])

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=1)
        assert result.fu1_busy.busy_time() == 80
        assert result.fu2_busy.busy_time() == 80
        # They overlap: total time well under serial execution.
        assert result.total_cycles < 2 * 80 + 10

    def test_structural_hazard_on_fu2(self, trace_from_block):
        def emit(b):
            b.set_vector_length(50)
            b.vector_op(Opcode.V_MUL, v_reg(1), [v_reg(0), v_reg(0)])
            b.vector_op(Opcode.V_MUL, v_reg(2), [v_reg(3), v_reg(3)])

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=1)
        [(start, end)] = result.fu2_busy.merged_pairs()
        assert end - start == 100

    def test_unit_pick_is_least_loaded_fu1_on_ties_fu2_when_required(
        self, trace_from_block
    ):
        def emit(b):
            b.set_vector_length(10)  # dispatches at 0
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])  # 0/0 tie: FU1
            b.set_vector_length(8)
            b.vector_op(Opcode.V_ADD, v_reg(2), [v_reg(0), v_reg(0)])  # 11/0: FU2
            b.vector_op(Opcode.V_ADD, v_reg(3), [v_reg(0), v_reg(0)])  # 11/11 tie: FU1
            b.vector_op(Opcode.V_ADD, v_reg(4), [v_reg(0), v_reg(0)])  # 19/11: FU2
            b.vector_op(Opcode.V_MUL, v_reg(5), [v_reg(0), v_reg(0)])  # 19/20, FU2 only

        result = simulate_reference(trace_from_block(emit), latency=1)
        assert result.fu1_busy.intervals() == [(1, 11), (11, 19)]
        assert result.fu2_busy.intervals() == [(3, 11), (12, 20), (20, 28)]


class TestScalarMemory:
    def test_scalar_cache_hit_avoids_port(self, trace_from_block):
        def emit(b):
            b.scalar_load(s_reg(0), "globals")
            b.scalar_load(s_reg(1), "globals")

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=80)
        assert result.scalar_cache_hits == 1
        assert result.scalar_cache_misses == 1
        assert result.port_busy.busy_time() == 1  # only the miss

    def test_scalar_store_hit_stays_off_the_port(self, trace_from_block):
        def emit(b):
            b.scalar_store(s_reg(0), "globals")
            b.scalar_store(s_reg(0), "globals")

        trace = trace_from_block(emit)
        # The first store misses and allocates the line; the cache absorbs
        # the second (no write-through).
        result = simulate_reference(trace, latency=10)
        assert result.port_busy.busy_time() == 1
        assert (result.scalar_cache_hits, result.scalar_cache_misses) == (1, 1)

    def test_scalar_miss_pays_latency(self, trace_from_block):
        def emit(b):
            b.scalar_load(s_reg(0), "globals")
            b.scalar_op(Opcode.S_ADD, s_reg(1), [s_reg(0)])

        trace = trace_from_block(emit)
        fast = simulate_reference(trace, latency=1)
        slow = simulate_reference(trace, latency=60)
        assert slow.total_cycles - fast.total_cycles == 59


class TestDispatchOrder:
    def test_blocked_instruction_delays_younger_ones(self, trace_from_block):
        def emit(b):
            b.set_vector_length(64)
            b.vector_load(v_reg(0), "x")
            # This depends on the load and blocks dispatch...
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
            # ...so this independent scalar op cannot slip ahead.
            b.scalar_op(Opcode.S_ADD, s_reg(0), [s_reg(0)])

        trace = trace_from_block(emit)
        result = simulate_reference(trace, latency=40)
        # Load data at 1 + 40 + 64 = 105; add issues at 105; scalar at 106.
        assert result.total_cycles == 105 + 4 + 64
        assert result.dispatch_stall_cycles > 0


class TestAccounting:
    def test_unblocked_stream_never_stalls(self, trace_from_block):
        def emit(b):
            for index in range(10):
                b.scalar_op(Opcode.S_ADD, s_reg(index % 4), [s_reg((index + 1) % 4)])

        result = simulate_reference(trace_from_block(emit), latency=50)
        assert result.dispatch_stall_cycles == 0
        assert result.category_cycles == {"scalar": 10}

    def test_stalls_accumulate_over_blocked_instructions(self, trace_from_block):
        def emit(b):
            b.set_vector_length(64)
            b.vector_load(v_reg(0), "x")
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
            b.vector_op(Opcode.V_ADD, v_reg(2), [v_reg(1), v_reg(1)])

        result = simulate_reference(trace_from_block(emit), latency=40)
        # The first add waits for the load data at 105 instead of issuing at
        # 2 (103 cycles); the second chains off it at 105 + 4 = 109 on the
        # other FU instead of issuing at 106 (3 cycles).
        assert result.dispatch_stall_cycles == 103 + 3
        assert result.total_cycles == 109 + 4 + 64

    def test_category_cycles_keep_first_charged_order(self, trace_from_block):
        def emit(b):
            b.set_vector_length(64)
            b.vector_load(v_reg(0), "x")
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
            b.vector_op(Opcode.V_ADD, v_reg(2), [v_reg(1), v_reg(1)])

        result = simulate_reference(trace_from_block(emit), latency=40)
        # Uncharged categories (scalar memory here) are absent.
        assert list(result.category_cycles.items()) == [
            ("scalar", 1),
            ("vector_memory", 64),
            ("vector_compute", 2 * 64),
        ]


class TestValidation:
    def test_empty_trace(self):
        result = simulate_reference(TraceBuilder("empty").build(), latency=10)
        assert result.total_cycles == 0
        assert result.instructions == 0
        assert result.port_idle_fraction == 0.0


class TestStateBreakdown:
    def test_breakdown_partitions_execution_time(self, trace_from_block):
        def emit(b):
            b.set_vector_length(32)
            b.vector_load(v_reg(0), "x")
            b.vector_op(Opcode.V_MUL, v_reg(1), [v_reg(0), v_reg(0)])
            b.vector_op(Opcode.V_ADD, v_reg(2), [v_reg(1), v_reg(0)])
            b.vector_store(v_reg(2), "y")

        trace = trace_from_block(emit, repeats=5)
        result = simulate_reference(trace, latency=25)
        breakdown = result.state_breakdown()
        assert sum(breakdown.values()) == result.total_cycles
        assert result.all_idle_cycles > 0
        port_idle = sum(cycles for (_, _, ld), cycles in breakdown.items() if not ld)
        assert port_idle == result.total_cycles - result.port_busy_cycles
