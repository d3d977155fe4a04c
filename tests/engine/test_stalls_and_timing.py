"""Unit tests for StallAccountant, TimingCore and MemoryFabric."""

import pytest

from repro.common.errors import ConfigurationError
from repro.engine import MemoryFabric, StallAccountant, TimingCore
from repro.memory.model import MemoryModel


class TestStallAccountant:
    def test_stalls_accumulate_by_kind(self):
        stalls = StallAccountant()
        stalls.stall("dispatch", 3)
        stalls.stall("dispatch", 4)
        stalls.stall("fetch", 1)
        assert stalls.stalls("dispatch") == 7
        assert stalls.stalls("fetch") == 1
        assert stalls.stalls("unknown") == 0

    def test_negative_charges_clamp_to_zero(self):
        stalls = StallAccountant()
        stalls.stall("dispatch", -5)
        assert stalls.stalls("dispatch") == 0

    def test_categories_accumulate_and_copy(self):
        stalls = StallAccountant()
        stalls.account("vector_compute", 64)
        stalls.account("vector_compute", 36)
        stalls.account("scalar", 1)
        assert stalls.total("vector_compute") == 100
        copied = stalls.categories()
        copied["scalar"] = 999
        assert stalls.total("scalar") == 1


class TestTimingCore:
    def test_finish_time_includes_pointers(self):
        core = TimingCore()
        core.horizon = 10
        assert core.finish_time() == 10
        assert core.finish_time(25, 3) == 25

    def test_pools_are_registered_by_name(self):
        core = TimingCore()
        pool = core.add_pool("FU", count=2)
        assert core.pool("FU") is pool
        with pytest.raises(ConfigurationError, match="already exists"):
            core.add_pool("FU")
        with pytest.raises(ConfigurationError, match="unknown resource pool"):
            core.pool("LD")


class TestMemoryFabric:
    def test_scalar_load_miss_then_hit(self):
        fabric = MemoryFabric(MemoryModel(latency=50))
        miss = fabric.scalar_access_at(0x1000, is_store=False)
        assert not miss.hit and miss.uses_port
        hit = fabric.scalar_access_at(0x1000, is_store=False)
        assert hit.hit and not hit.uses_port

    def test_scalar_load_ready_latencies(self):
        fabric = MemoryFabric(MemoryModel(latency=50))
        miss = fabric.scalar_access_at(0x1000, is_store=False)
        assert fabric.scalar_load_ready(miss, 10) == 10 + 1 + 50
        hit = fabric.scalar_access_at(0x1000, is_store=False)
        assert fabric.scalar_load_ready(hit, 10) == 10 + 1  # hit latency 1

    def test_store_hit_stays_off_port_unless_write_through(self):
        fabric = MemoryFabric(MemoryModel(latency=1))
        fabric.scalar_access_at(0x2000, is_store=False)  # allocate the line
        assert not fabric.scalar_access_at(0x2000, is_store=True).uses_port

        through = MemoryFabric(
            MemoryModel(latency=1), scalar_store_writes_through=True
        )
        through.scalar_access_at(0x2000, is_store=False)
        assert through.scalar_access_at(0x2000, is_store=True).uses_port

    def test_bus_occupation_accumulates_traffic_and_port_time(self):
        fabric = MemoryFabric(MemoryModel(latency=1))
        start, end = fabric.occupy_bus(4, 1, 8)
        assert (start, end) == (4, 5)
        assert fabric.traffic_bytes == 8
        assert fabric.port_free() == 5
        # The next reference waits for the single port.
        start, end = fabric.occupy_bus(0, 1, 8)
        assert start == 5

    def test_two_ports_overlap_references(self):
        fabric = MemoryFabric(MemoryModel(latency=1), ports=2)
        first, _ = fabric.occupy_bus(0, 1, 8)
        second, _ = fabric.occupy_bus(0, 1, 8)
        assert (first, second) == (0, 0)
        assert fabric.port_recorder().busy_time() == 1  # merged "any port busy"
