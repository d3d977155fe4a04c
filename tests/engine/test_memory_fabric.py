"""Unit tests for MemoryFabric."""

from repro.core import MachineSpec
from repro.engine import MemoryFabric, ResourcePool, vector_bus_cycles


def _fabric(latency, **fields):
    return MemoryFabric(MachineSpec(family="ref", **fields), latency)


class TestBusRule:
    def test_vector_reference_holds_the_bus_max_vl_1_cycles(self):
        # A zero-length vector still issues and takes one element's slot.
        assert [vector_bus_cycles(vl) for vl in (0, 1, 128)] == [1, 1, 128]

    def test_vector_load_ready_is_start_plus_latency_plus_bus(self):
        assert _fabric(50).vector_load_ready(10, 128) == 10 + 50 + 128


class TestMemoryFabric:
    def test_scalar_load_miss_then_hit(self):
        fabric = _fabric(50)
        assert not fabric.cache.access(0x1000)
        assert fabric.cache.access(0x1000)

    def test_scalar_load_ready_latencies(self):
        fabric = _fabric(50)
        assert fabric.scalar_load_ready(False, 10) == 10 + 1 + 50
        assert fabric.scalar_load_ready(True, 10) == 10 + 1  # hit latency 1

    def test_cache_takes_the_spec_geometry(self):
        fabric = _fabric(1, cache_line_bytes=64, cache_lines=8)
        assert (fabric.cache.line_bytes, fabric.cache.lines) == (64, 8)
        fabric.cache.access(0x0)
        assert fabric.cache.access(0x38)  # same 64-byte line

    def test_bus_occupation_accumulates_traffic_and_port_time(self):
        fabric = _fabric(1)
        start, end = fabric.occupy_bus(4, 1, 8)
        assert (start, end) == (4, 5)
        assert fabric.traffic_bytes == 8
        assert fabric.ports.free == [5]
        # The next reference waits for the single port.
        start, end = fabric.occupy_bus(0, 1, 8)
        assert start == 5

    def test_two_ports_overlap_references(self):
        fabric = _fabric(1, memory_ports=2)
        first, _ = fabric.occupy_bus(0, 1, 8)
        second, _ = fabric.occupy_bus(0, 1, 8)
        assert (first, second) == (0, 0)
        assert fabric.port_recorder().busy_time() == 1  # merged "any port busy"

    def test_port_pick_is_the_pools_least_loaded_rule(self):
        fabric = _fabric(1, memory_ports=3)
        pool = ResourcePool("LD", 3)
        for earliest, cycles in [(0, 4), (0, 2), (1, 3), (2, 1), (2, 5), (9, 1)]:
            start, end = fabric.occupy_bus(earliest, cycles, 8)
            expected, _unit = pool.acquire(earliest, cycles)
            assert (start, end) == (expected, expected + cycles)
        assert fabric.ports.free == pool.free
        for mine, theirs in zip(fabric.ports.recorders, pool.recorders):
            assert (mine.starts, mine.ends) == (theirs.starts, theirs.ends)
