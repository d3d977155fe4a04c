"""Tests for the parametric synthetic kernels."""

import pytest

from repro.trace.generator import TraceBuilder
from repro.trace.statistics import compute_statistics
from repro.workloads import synthetic
from repro.workloads.compiler import VectorizingCompiler


def _stats_for(kernel):
    compiler = VectorizingCompiler()
    compiled = compiler.compile(kernel)
    builder = TraceBuilder("synthetic")
    compiled.emit_invocation(builder)
    return compute_statistics(builder.build())


class TestFactories:
    def test_daxpy_shape(self):
        kernel = synthetic.daxpy(elements=256, max_vector_length=128)
        assert len(kernel.loads) == 2
        assert len(kernel.stores) == 1
        assert kernel.fu2_ops == 1
        assert kernel.uses_scalar_operand

    def test_stream_triad_is_memory_bound(self):
        kernel = synthetic.stream_triad()
        assert len(kernel.loads) + len(kernel.stores) > kernel.fu_any_ops + kernel.fu2_ops

    def test_compute_bound_is_compute_bound(self):
        kernel = synthetic.compute_bound(fu_ops=12)
        assert kernel.fu_any_ops + kernel.fu2_ops == 12
        assert len(kernel.loads) + len(kernel.stores) == 2
        assert kernel.load_use_distance > 0

    def test_reduction_flags(self):
        assert synthetic.reduction().reduction
        assert not synthetic.reduction().reduction_carried
        assert synthetic.reduction(carried=True).reduction_carried

    def test_spill_heavy_spills(self):
        kernel = synthetic.spill_heavy(spill_pairs=3)
        assert kernel.vector_spill_pairs == 3

    def test_gather_scatter_indexed(self):
        kernel = synthetic.gather_scatter()
        assert any(stream.indexed for stream in kernel.loads)
        assert any(stream.indexed for stream in kernel.stores)

    def test_strided_kernel(self):
        kernel = synthetic.strided(stride=7)
        assert kernel.loads[0].stride == 7

    @pytest.mark.parametrize(
        "factory",
        [
            synthetic.daxpy,
            synthetic.stream_triad,
            synthetic.stencil3,
            synthetic.compute_bound,
            synthetic.reduction,
            synthetic.spill_heavy,
            synthetic.gather_scatter,
            synthetic.strided,
        ],
    )
    def test_every_factory_compiles_and_traces(self, factory):
        kernel = factory()
        stats = _stats_for(kernel)
        assert stats.vector_instructions > 0

    def test_simple_program(self):
        model = synthetic.simple_program(elements=256, repetitions=2)
        trace = model.build_trace()
        stats = compute_statistics(trace)
        assert stats.vector_operations > 0
        assert trace.name == "synthetic"
