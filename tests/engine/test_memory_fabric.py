"""Unit tests for MemoryFabric."""

from repro.engine import MemoryFabric
from repro.memory.model import MemoryModel


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
