"""Tests for memory ranges and the disambiguation rule."""

from hypothesis import given, strategies as st

from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.memory.ranges import INDEXED_BOUNDS, access_range, overlaps


class TestMemoryRange:
    @given(
        base=st.integers(0, 2**62),
        vl=st.integers(0, 128),
        stride=st.integers(-(2**40), 2**40),
    )
    def test_start_never_follows_end(self, base, vl, stride):
        start, end = access_range(base, vl, stride)
        assert start <= end

    def test_bounds_are_half_open(self):
        memory_range = (0x100, 0x140)
        assert overlaps(*memory_range, 0x100, 0x101)
        assert overlaps(*memory_range, 0x13F, 0x140)
        assert not overlaps(*memory_range, 0x140, 0x141)

    def test_full_range(self):
        assert overlaps(*INDEXED_BOUNDS, 0, 1)
        assert overlaps(*INDEXED_BOUNDS, 2**62, 2**62 + 1)
        assert overlaps(*INDEXED_BOUNDS, 0, 0)
        # The most extreme strided references 64-bit trace columns can describe.
        assert overlaps(*INDEXED_BOUNDS, *access_range(2**63 - 1, 128, 2**63 - 1))
        assert overlaps(*INDEXED_BOUNDS, *access_range(-(2**63), 128, -(2**63)))
        assert overlaps(*INDEXED_BOUNDS, *INDEXED_BOUNDS)

    def test_overlap(self):
        assert overlaps(0, 10, 9, 20)
        assert not overlaps(0, 10, 10, 20)
        assert overlaps(0, 10, 5, 6)


class TestRangeOfAccess:
    def test_unit_stride_vector(self):
        assert access_range(0x1000, 10, 1) == (0x1000, 0x1000 + 9 * 8 + 8)

    def test_strided_vector(self):
        assert access_range(0x2000, 4, 3) == (0x2000, 0x2000 + 3 * 3 * 8 + 8)

    def test_negative_stride_swaps_endpoints(self):
        assert access_range(0x3000, 5, -2) == (0x3000 - 4 * 2 * 8, 0x3000 + 8)

    def test_zero_length_vector(self):
        assert access_range(0x4000, 0, 1) == (0x4000, 0x4000)

    def test_scalar_access_covers_one_element(self):
        assert access_range(0x5000, 1, 1) == (0x5000, 0x5000 + ELEMENT_SIZE_BYTES)

    def test_gather_and_scatter_cover_all_memory(self):
        gather = access_range(0x100, 8, 1, indexed=True)
        scatter = access_range(0x9000, 8, 1, indexed=True)
        assert gather == scatter == INDEXED_BOUNDS
        assert overlaps(*gather, 0, 1)

    @given(
        base=st.integers(0, 2**30),
        vl=st.integers(1, 128),
        stride=st.integers(-16, 16).filter(lambda s: s != 0),
    )
    def test_every_element_address_is_inside_the_range(self, base, vl, stride):
        start, end = access_range(base, vl, stride)
        for element in range(vl):
            address = base + element * stride * ELEMENT_SIZE_BYTES
            assert start <= address < end
