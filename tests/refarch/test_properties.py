"""Property-style and integration tests for the reference simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MachineSpec
from repro.refarch import simulate_reference
from repro.trace.statistics import compute_statistics
from repro.workloads import load_program, program_names, synthetic
from repro.workloads.compiler import VectorizingCompiler
from repro.trace.generator import TraceBuilder
from repro.workloads.kernel import LoopKernel, VectorStream


def _trace_for_kernel(kernel, invocations=1, name="prop"):
    compiler = VectorizingCompiler()
    compiled = compiler.compile(kernel)
    builder = TraceBuilder(name)
    compiled.emit_program(builder, invocations=invocations)
    return builder.build()


class TestMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(
        loads=st.integers(1, 3),
        fu_ops=st.integers(1, 4),
        vl=st.integers(8, 128),
    )
    def test_execution_time_is_monotone_in_latency(self, loads, fu_ops, vl):
        kernel = LoopKernel(
            name="k",
            elements=vl * 3,
            max_vector_length=vl,
            loads=tuple(VectorStream(f"s{i}") for i in range(loads)),
            stores=(VectorStream("out"),),
            fu_any_ops=fu_ops,
            address_ops=2,
            scalar_ops=2,
        )
        trace = _trace_for_kernel(kernel)
        cycles = [
            simulate_reference(trace, latency).total_cycles
            for latency in (1, 10, 40, 80)
        ]
        assert cycles == sorted(cycles)

    @settings(max_examples=15, deadline=None)
    @given(vl=st.integers(4, 128), latency=st.integers(1, 100))
    def test_cycles_at_least_port_occupancy(self, vl, latency):
        kernel = synthetic.stream_triad(elements=vl * 4, max_vector_length=vl)
        trace = _trace_for_kernel(kernel)
        result = simulate_reference(trace, latency)
        assert result.total_cycles >= result.port_busy.busy_time()
        assert result.total_cycles >= result.fu1_busy.busy_time()
        assert result.total_cycles >= result.fu2_busy.busy_time()

    @settings(max_examples=15, deadline=None)
    @given(vl=st.integers(4, 128))
    def test_load_chaining_never_hurts(self, vl):
        kernel = synthetic.daxpy(elements=vl * 4, max_vector_length=vl)
        trace = _trace_for_kernel(kernel)
        base = simulate_reference(trace, latency=30)
        chained = simulate_reference(
            trace, latency=30, spec=MachineSpec(family="ref", chaining=True)
        )
        assert chained.total_cycles <= base.total_cycles


class TestBenchmarkPrograms:
    @pytest.mark.parametrize("name", program_names())
    def test_every_program_simulates(self, name):
        trace = load_program(name).build_trace(scale=0.25)
        result = simulate_reference(trace, latency=30)
        assert result.total_cycles > 0
        assert result.instructions == len(trace)
        breakdown = result.state_breakdown()
        assert sum(breakdown.cycles.values()) == result.total_cycles

    def test_memory_bound_programs_keep_port_busy(self):
        trace = load_program("ARC2D").build_trace(scale=0.5)
        result = simulate_reference(trace, latency=1)
        assert result.port_busy_fraction > 0.85

    def test_latency_hurts_short_vector_programs_more(self):
        """The paper: TRFD/SPEC77/DYFESM are hit hardest by memory latency."""
        degradation = {}
        for name in ("ARC2D", "TRFD"):
            trace = load_program(name).build_trace(scale=0.5)
            low = simulate_reference(trace, latency=1).total_cycles
            high = simulate_reference(trace, latency=100).total_cycles
            degradation[name] = high / low
        assert degradation["TRFD"] > degradation["ARC2D"]

    def test_idle_port_ordering_matches_paper(self):
        """Section 3: DYFESM and SPEC77 leave the port idle far more than ARC2D/FLO52."""
        idle = {}
        for name in ("ARC2D", "FLO52", "DYFESM", "SPEC77"):
            trace = load_program(name).build_trace(scale=0.5)
            idle[name] = simulate_reference(trace, latency=30).port_idle_fraction
        assert idle["DYFESM"] > idle["ARC2D"]
        assert idle["DYFESM"] > idle["FLO52"]
        assert idle["SPEC77"] > idle["ARC2D"]

    def test_traffic_matches_trace_bytes(self):
        trace = load_program("FLO52").build_trace(scale=0.25)
        stats = compute_statistics(trace)
        result = simulate_reference(trace, latency=10)
        # Scalar cache absorbs part of the scalar traffic, so simulator
        # traffic is bounded by the trace's total memory bytes.
        assert 0 < result.memory_traffic_bytes <= stats.memory_bytes
