"""Tests for memory ranges and the disambiguation rule."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.memory.ranges import FULL_RANGE, MemoryRange, access_range


class TestMemoryRange:
    def test_invalid_range(self):
        with pytest.raises(SimulationError):
            MemoryRange(100, 50)

    def test_bounds_are_half_open(self):
        memory_range = MemoryRange(0x100, 0x140)
        assert memory_range.overlaps(MemoryRange(0x100, 0x101))
        assert memory_range.overlaps(MemoryRange(0x13F, 0x140))
        assert not memory_range.overlaps(MemoryRange(0x140, 0x141))

    def test_full_range(self):
        assert FULL_RANGE.overlaps(MemoryRange(0, 1))
        assert FULL_RANGE.overlaps(MemoryRange(2**62, 2**62 + 1))
        assert FULL_RANGE.overlaps(MemoryRange(0, 0))

    def test_overlap(self):
        assert MemoryRange(0, 10).overlaps(MemoryRange(9, 20))
        assert not MemoryRange(0, 10).overlaps(MemoryRange(10, 20))
        assert MemoryRange(0, 10).overlaps(MemoryRange(5, 6))


class TestRangeOfAccess:
    def test_unit_stride_vector(self):
        memory_range = access_range(0x1000, 10, 1)
        assert memory_range.start == 0x1000
        assert memory_range.end == 0x1000 + 9 * 8 + 8

    def test_strided_vector(self):
        memory_range = access_range(0x2000, 4, 3)
        assert memory_range.start == 0x2000
        assert memory_range.end == 0x2000 + 3 * 3 * 8 + 8

    def test_negative_stride_swaps_endpoints(self):
        memory_range = access_range(0x3000, 5, -2)
        assert memory_range.start == 0x3000 - 4 * 2 * 8
        assert memory_range.end == 0x3000 + 8

    def test_zero_length_vector(self):
        memory_range = access_range(0x4000, 0, 1)
        assert (memory_range.start, memory_range.end) == (0x4000, 0x4000)

    def test_scalar_access_covers_one_element(self):
        memory_range = access_range(0x5000, 1, 1)
        assert (memory_range.start, memory_range.end) == (0x5000, 0x5000 + ELEMENT_SIZE_BYTES)

    def test_gather_and_scatter_cover_all_memory(self):
        gather = access_range(0x100, 8, 1, indexed=True)
        scatter = access_range(0x9000, 8, 1, indexed=True)
        assert gather.full
        assert scatter.full
        assert gather.overlaps(MemoryRange(0, 1))

    @given(
        base=st.integers(0, 2**30),
        vl=st.integers(1, 128),
        stride=st.integers(-16, 16).filter(lambda s: s != 0),
    )
    def test_every_element_address_is_inside_the_range(self, base, vl, stride):
        memory_range = access_range(base, vl, stride)
        for element in range(vl):
            address = base + element * stride * ELEMENT_SIZE_BYTES
            assert memory_range.start <= address < memory_range.end
