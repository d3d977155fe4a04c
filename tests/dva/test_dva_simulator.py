"""Unit and property tests for the decoupled-architecture simulator.

The hand-computed timings follow the DVA's hand-over rules: the fetch
processor distributes one instruction per cycle and each instruction-queue
entry is ready the cycle after it is pushed; a vector load's data reaches
the VP through a QMOV that waits for the whole register in the AVDQ and can
chain into its consumer ``QMOV_STARTUP`` (1) cycle after it starts.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MachineSpec
from repro.dva import DecoupledSimulator, simulate_decoupled
from repro.isa.opcodes import Opcode
from repro.isa.registers import s_reg, v_reg
from repro.refarch import simulate_reference
from repro.trace.generator import TraceBuilder
from repro.trace.statistics import compute_statistics
from repro.workloads import load_program, program_names, synthetic
from repro.workloads.compiler import VectorizingCompiler

SCALE = 0.1


def _trace_for_kernel(kernel, name="dva"):
    compiled = VectorizingCompiler().compile(kernel)
    builder = TraceBuilder(name)
    compiled.emit_program(builder, invocations=1)
    return builder.build()


@pytest.fixture(scope="module")
def program_traces():
    return {name: load_program(name).build_trace(scale=SCALE) for name in program_names()}


class TestHandTimings:
    def test_empty_trace_takes_no_cycles(self):
        result = simulate_decoupled(TraceBuilder("empty").build(), latency=50)
        assert result.total_cycles == 0
        assert result.instructions == 0

    def test_scalar_stream_runs_one_per_cycle_behind_the_fetch(self, trace_from_block):
        def emit(b):
            for index in range(10):
                b.scalar_op(Opcode.S_ADD, s_reg(index % 4), [s_reg((index + 1) % 4)])

        result = simulate_decoupled(trace_from_block(emit), latency=50)
        # Fetched at 0..9, issued on the SP at 1..10, the last done at 11.
        assert result.total_cycles == 11
        assert result.instructions_per_processor["SP"] == 10
        assert result.instructions_per_processor["AP"] == 0
        assert result.port_busy.busy_time() == 0

    def test_load_reaches_its_consumer_through_a_qmov(self, trace_from_block):
        def emit(b):
            b.set_vector_length(64)
            b.vector_load(v_reg(0), "x")
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])

        result = simulate_decoupled(trace_from_block(emit), latency=30)
        # The AP issues the load at 2 (bus [2, 66), last element at 96); the
        # QMOV starts at 96 and chains into the add at 97, which completes
        # after the FU startup and 64 elements.
        assert result.total_cycles == 97 + 4 + 64
        # The load's AVDQ entry lives from the AP issue to the QMOV's end.
        assert result.avdq_histogram().as_dict() == {0: 2 + 5, 1: 160 - 2}

    def test_stores_are_performed_behind_the_aps_back(self, trace_from_block):
        def emit(b):
            b.set_vector_length(32)
            b.vector_op(Opcode.V_ADD, v_reg(0), [v_reg(1), v_reg(1)])
            b.vector_store(v_reg(0), "y")

        result = simulate_decoupled(trace_from_block(emit), latency=100)
        # The add starts at 2 and chains at 6; the store's QMOV starts at 6
        # and has the data in the VADQ at 38; the store then holds the port
        # for 32 cycles and pays no memory latency.
        assert result.total_cycles == 38 + 32
        assert result.memory_traffic_bytes == 32 * 8

    def test_repeated_loads_decouple_from_computation(self, trace_from_block):
        def emit(b):
            b.set_vector_length(64)
            b.vector_load(v_reg(0), "x")
            b.vector_op(Opcode.V_MUL, v_reg(1), [v_reg(0), v_reg(0)])

        trace = trace_from_block(emit, repeats=8)
        decoupled = simulate_decoupled(trace, latency=100).total_cycles
        reference = simulate_reference(trace, latency=100).total_cycles
        # The AP runs ahead, so memory latency is paid about once, not per load.
        assert decoupled < reference
        assert decoupled < 8 * 64 + 2 * 100 + 4 * 64

    @pytest.mark.parametrize("depth, stall", [(1, 6), (2, 0)])
    def test_an_instruction_queue_holds_its_last_issue_cycles(
        self, trace_from_block, depth, stall
    ):
        def emit(b):
            b.set_vector_length(8)
            for index in range(4):
                b.vector_op(Opcode.V_ADD, v_reg(1 + index), [v_reg(0), v_reg(0)])

        spec = MachineSpec(family="dva", instruction_queue=depth)
        result = simulate_decoupled(trace_from_block(emit), 50, spec)
        # The adds issue at 2 (FU1), 3 (FU2), 10 (FU1) and 11 (FU2).  The
        # fourth is fetched once its VPIQ slot frees: with one slot that is
        # when the third issues (10, six cycles after the fetch reached it);
        # with two, when the second issued (3), already past.
        assert result.fetch_stall_cycles == stall
        assert result.fu1_busy.merged_pairs() == [(2, 18)]
        assert result.fu2_busy.merged_pairs() == [(3, 19)]
        assert result.total_cycles == 11 + 4 + 8

    def test_fu2_only_work_waits_for_fu2_while_fu1_idles(self, trace_from_block):
        def emit(b):
            b.set_vector_length(8)
            b.vector_op(Opcode.V_MUL, v_reg(1), [v_reg(0), v_reg(0)])
            b.vector_op(Opcode.V_MUL, v_reg(2), [v_reg(0), v_reg(0)])
            b.vector_op(Opcode.V_ADD, v_reg(3), [v_reg(0), v_reg(0)])

        result = simulate_decoupled(trace_from_block(emit), 50)
        # The second multiply waits for FU2 (until 10) although FU1 is idle;
        # the in-order VP issues the add after it, on FU1.
        assert result.fu2_busy.merged_pairs() == [(2, 18)]
        assert result.fu1_busy.merged_pairs() == [(11, 19)]


class TestConfigurationEffects:
    def test_bypass_services_a_reload_of_just_stored_data(self, trace_from_block):
        def emit(b):
            b.set_vector_length(16)
            b.vector_op(Opcode.V_ADD, v_reg(0), [v_reg(1), v_reg(1)])
            b.vector_store(v_reg(0), "y")
            b.vector_load(v_reg(2), "y")

        trace = trace_from_block(emit)
        plain = simulate_decoupled(trace, 50, MachineSpec(family="dva", bypass=False))
        bypassed = simulate_decoupled(trace, 50, MachineSpec(family="dva", bypass=True))
        assert (plain.bypassed_loads, plain.disambiguation_stalls) == (0, 1)
        assert (bypassed.bypassed_loads, bypassed.disambiguation_stalls) == (1, 0)
        assert bypassed.bypassed_bytes == 16 * 8
        assert bypassed.memory_traffic_bytes == plain.memory_traffic_bytes - 16 * 8
        assert bypassed.total_cycles < plain.total_cycles

    def test_avdq_capacity_throttles_the_address_processor(self, trace_from_block):
        def emit(b):
            b.set_vector_length(64)
            b.vector_load(v_reg(0), "x")
            b.vector_op(Opcode.V_MUL, v_reg(1), [v_reg(0), v_reg(0)])

        trace = trace_from_block(emit, repeats=8)
        one = MachineSpec(family="dva", vector_load_data=1)
        narrow = simulate_decoupled(trace, latency=100, spec=one)
        wide = simulate_decoupled(trace, latency=100)
        assert narrow.max_avdq_occupancy() == 1
        assert wide.max_avdq_occupancy() > 1
        assert narrow.total_cycles > wide.total_cycles

    def test_full_instruction_queue_stalls_the_fetch(self, trace_from_block):
        def emit(b):
            b.set_vector_length(64)
            b.vector_load(v_reg(0), "x")
            for index in range(4):
                b.vector_op(Opcode.V_ADD, v_reg(1 + index), [v_reg(0), v_reg(0)])

        trace = trace_from_block(emit)
        one = MachineSpec(family="dva", instruction_queue=1)
        narrow = simulate_decoupled(trace, latency=100, spec=one)
        wide = simulate_decoupled(trace, latency=100)
        # The adds wait on the load; with one IQ slot the fetch waits behind them.
        assert wide.fetch_stall_cycles == 0
        assert narrow.fetch_stall_cycles > 0

    def test_simulator_class_matches_the_convenience_wrapper(self, trace_from_block):
        def emit(b):
            b.set_vector_length(8)
            b.vector_load(v_reg(0), "x")
            b.vector_store(v_reg(0), "y")

        trace = trace_from_block(emit, repeats=3)
        spec = MachineSpec(family="dva", lanes=2)
        direct = DecoupledSimulator(spec, 7).run(trace)
        assert direct.to_json() == simulate_decoupled(trace, 7, spec).to_json()

    @settings(max_examples=15, deadline=None)
    @given(vl=st.integers(4, 128), latency=st.integers(1, 100), lanes=st.integers(1, 4))
    def test_cycles_cover_every_units_busy_time(self, vl, latency, lanes):
        trace = _trace_for_kernel(synthetic.daxpy(elements=vl * 4, max_vector_length=vl))
        spec = MachineSpec(family="dva", bypass=False, lanes=lanes)
        result = simulate_decoupled(trace, latency, spec)
        for recorder in (result.port_busy, result.fu1_busy, result.fu2_busy):
            assert recorder.busy_time() <= result.total_cycles
        # The first load's last element cannot arrive before latency + VL.
        assert result.total_cycles > latency + vl


@pytest.mark.parametrize("name", program_names())
class TestBenchmarkPrograms:
    def test_result_accounting_is_consistent(self, program_traces, name):
        trace = program_traces[name]
        result = simulate_decoupled(trace, latency=50)
        counts = result.instructions_per_processor
        stats = compute_statistics(trace)
        assert counts["FP"] == result.instructions == len(trace)
        assert counts["vector_loads"] + counts["vector_stores"] == stats.vector_memory_instructions
        assert sum(result.state_breakdown().cycles.values()) == result.total_cycles
        assert result.avdq_histogram().total() == result.total_cycles
        for recorder in (result.port_busy, result.fu1_busy, result.fu2_busy):
            assert recorder.busy_time() <= result.total_cycles

    def test_payload_survives_a_json_round_trip(self, program_traces, name):
        payload = simulate_decoupled(program_traces[name], latency=10).to_json()
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("depth", [1, 2])
    def test_a_shallow_scalar_store_queue_drains_instead_of_failing(
        self, program_traces, name, depth
    ):
        trace = program_traces[name]
        spec = MachineSpec(family="dva", scalar_store_address=depth)
        shallow = simulate_decoupled(trace, latency=50, spec=spec)
        default = simulate_decoupled(trace, latency=50)
        # A full SSAQ performs its oldest store early; every instruction
        # still runs on the processor it ran on before.
        assert shallow.instructions_per_processor == default.instructions_per_processor
        assert sum(shallow.state_breakdown().cycles.values()) == shallow.total_cycles

    @pytest.mark.parametrize("capacity", [1, 4])
    def test_avdq_occupancy_never_exceeds_its_capacity(self, program_traces, name, capacity):
        spec = MachineSpec(family="dva", bypass=False, vector_load_data=capacity)
        result = simulate_decoupled(program_traces[name], latency=50, spec=spec)
        assert result.max_avdq_occupancy() <= capacity

    def test_bypass_never_adds_memory_traffic(self, program_traces, name):
        plain = simulate_decoupled(
            program_traces[name], 50, MachineSpec(family="dva", vector_load_data=4, bypass=False)
        )
        bypassed = simulate_decoupled(
            program_traces[name], 50, MachineSpec(family="dva", vector_load_data=4, bypass=True)
        )
        assert bypassed.memory_traffic_bytes <= plain.memory_traffic_bytes
        assert bypassed.bypassed_loads <= bypassed.instructions_per_processor["vector_loads"]

    def test_decoupling_tolerates_latency_better_than_the_reference(self, program_traces, name):
        """Paper §5: the DVA's speedup over REF grows with memory latency."""
        trace = program_traces[name]
        section5 = MachineSpec(family="dva", bypass=False)
        speedups = [
            simulate_reference(trace, latency).total_cycles
            / simulate_decoupled(trace, latency, section5).total_cycles
            for latency in (1, 100)
        ]
        assert speedups[1] > speedups[0]
