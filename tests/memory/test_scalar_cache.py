"""Tests for the scalar cache."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigurationError
from repro.memory.scalar_cache import ScalarCache


def _cache(line_bytes=32, lines=1024):
    return ScalarCache(line_bytes, lines)


class TestScalarCache:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScalarCache(line_bytes=0, lines=8)
        with pytest.raises(ConfigurationError):
            ScalarCache(line_bytes=24, lines=8)
        with pytest.raises(ConfigurationError):
            ScalarCache(line_bytes=32, lines=0)

    def test_cold_miss_then_hit(self):
        cache = _cache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.access(0x1008)  # same 32-byte line
        assert cache.hits == 2
        assert cache.misses == 1

    def test_different_lines_miss(self):
        cache = _cache(lines=8)
        assert not cache.access(0x0)
        assert not cache.access(0x20)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_conflict_eviction(self):
        cache = _cache(lines=2)
        cache.access(0x00)          # line 0
        cache.access(0x40)          # maps to line 0 again, evicts
        assert not cache.access(0x00)

    @given(st.lists(st.integers(0, 0xFFFF), max_size=100))
    def test_every_access_is_one_hit_or_one_miss(self, addresses):
        cache = _cache(lines=8)
        hits = sum(cache.access(address) for address in addresses)
        assert cache.hits == hits
        assert cache.misses == len(addresses) - hits

    @given(st.lists(st.integers(0, 0x3FF), min_size=1, max_size=200))
    def test_repeated_small_working_set_eventually_hits(self, addresses):
        # A working set smaller than the cache must hit on every second pass.
        cache = _cache(lines=64)
        for address in addresses:
            cache.access(address)
        hits_before = cache.hits
        for address in addresses:
            assert cache.access(address) or True
        # Second pass over a <=1 KiB working set in a 2 KiB cache: all hits.
        assert cache.hits - hits_before == len(addresses)
