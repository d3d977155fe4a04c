"""Tests for the loop-kernel description language."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import WorkloadError
from repro.isa.registers import VECTOR_REGISTER_LENGTH
from repro.workloads.compiler import VectorizingCompiler
from repro.workloads.kernel import KernelSchedule, LoopKernel, VectorStream


def _strip(kernel):
    """The compiled block of the kernel's first strip."""
    compiled = VectorizingCompiler().compile(kernel)
    return compiled.block_for_length(kernel.strip_lengths[0])


def _vector_count(block):
    return sum(instruction.is_vector for instruction in block)


def _seeds(block):
    return sum(instruction.label.endswith(".seed") for instruction in block)


class TestVectorStream:
    def test_requires_region(self):
        with pytest.raises(WorkloadError):
            VectorStream(region="")

    def test_rejects_zero_stride(self):
        with pytest.raises(WorkloadError):
            VectorStream(region="x", stride=0)

    def test_negative_stride_ok(self):
        assert VectorStream(region="x", stride=-3).stride == -3


class TestLoopKernelValidation:
    def test_requires_name_and_elements(self):
        with pytest.raises(WorkloadError):
            LoopKernel(name="", elements=10)
        with pytest.raises(WorkloadError):
            LoopKernel(name="k", elements=0)

    def test_max_vector_length_bounds(self):
        with pytest.raises(WorkloadError):
            LoopKernel(name="k", elements=10, max_vector_length=0)
        with pytest.raises(WorkloadError):
            LoopKernel(
                name="k", elements=10, max_vector_length=VECTOR_REGISTER_LENGTH + 1
            )

    def test_carried_reduction_requires_reduction(self):
        with pytest.raises(WorkloadError):
            LoopKernel(name="k", elements=10, reduction_carried=True)

    def test_negative_counts_rejected(self):
        with pytest.raises(WorkloadError):
            LoopKernel(name="k", elements=10, fu_any_ops=-1)
        with pytest.raises(WorkloadError):
            LoopKernel(name="k", elements=10, scalar_ops=-1)

    def test_kernel_without_any_vector_work_rejected(self):
        with pytest.raises(WorkloadError):
            LoopKernel(name="k", elements=10, fu_any_ops=0)


class TestStripMining:
    def test_exact_multiple(self):
        kernel = LoopKernel(name="k", elements=256, max_vector_length=128)
        assert kernel.strip_lengths == [128, 128]

    def test_remainder_strip(self):
        kernel = LoopKernel(name="k", elements=300, max_vector_length=128)
        assert kernel.strip_lengths == [128, 128, 44]

    def test_short_loop_single_strip(self):
        kernel = LoopKernel(name="k", elements=20, max_vector_length=128)
        assert kernel.strip_lengths == [20]

    @given(
        elements=st.integers(1, 4000),
        max_vl=st.integers(1, VECTOR_REGISTER_LENGTH),
    )
    def test_strips_cover_all_elements(self, elements, max_vl):
        kernel = LoopKernel(name="k", elements=elements, max_vector_length=max_vl)
        lengths = kernel.strip_lengths
        assert sum(lengths) == elements
        assert all(0 < length <= max_vl for length in lengths)
        assert len(lengths) == -(-elements // max_vl)


class TestCompiledStripCounts:
    def test_vector_counts(self):
        kernel = LoopKernel(
            name="k",
            elements=128,
            loads=(VectorStream("x"), VectorStream("y")),
            stores=(VectorStream("z"),),
            fu_any_ops=2,
            fu2_ops=1,
            vector_spill_pairs=1,
            reduction=True,
            uses_scalar_operand=True,
        )
        block = _strip(kernel)
        memory = sum(instruction.is_vector and instruction.is_memory for instruction in block)
        # 3 memory streams + a spill pair's store and reload.
        assert memory == 3 + 2
        # 2+1 compute + reduction + splat + the spill pair's filler and consumer.
        assert _vector_count(block) - memory == 5 + 2
        assert _seeds(block) == 0

    def test_seed_splat_conditions(self):
        no_loads = LoopKernel(name="k", elements=16, fu_any_ops=2)
        assert _seeds(_strip(no_loads)) == 1
        with_loads = LoopKernel(
            name="k", elements=16, loads=(VectorStream("x"),), fu_any_ops=2
        )
        assert _seeds(_strip(with_loads)) == 0
        distance = LoopKernel(
            name="k",
            elements=16,
            loads=(VectorStream("x"),),
            fu_any_ops=4,
            load_use_distance=2,
        )
        block = _strip(distance)
        assert _seeds(block) == 1
        assert _vector_count(block) == 1 + 4 + 1

    def test_scalar_counts(self):
        kernel = LoopKernel(
            name="k",
            elements=64,
            loads=(VectorStream("x", stride=4),),
            fu_any_ops=1,
            address_ops=3,
            scalar_ops=5,
            scalar_loads=1,
            scalar_stores=1,
            scalar_spill_pairs=2,
            reduction=True,
            reduction_carried=True,
        )
        block = _strip(kernel)
        # set_vl + 2 set_vs + 3 addr + 5 scalar + 1 load + 1 store + 4 spill
        # + 3 loop control + 1 reduction accumulate + 1 carried move.
        assert len(block) - _vector_count(block) == 1 + 2 + 3 + 5 + 1 + 1 + 4 + 3 + 1 + 1


class TestKernelSchedule:
    def test_rejects_non_positive_repetitions(self):
        kernel = LoopKernel(name="k", elements=10)
        with pytest.raises(WorkloadError):
            KernelSchedule(kernel, repetitions=0)
