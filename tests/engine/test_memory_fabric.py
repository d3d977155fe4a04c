"""Unit tests for MemoryFabric."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core import MachineSpec
from repro.engine import MemoryFabric, vector_bus_cycles


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
        assert fabric.port_free == [5]
        # The next reference waits for the single port.
        start, end = fabric.occupy_bus(0, 1, 8)
        assert start == 5

    def test_two_ports_overlap_references(self):
        fabric = _fabric(1, memory_ports=2)
        first, _ = fabric.occupy_bus(0, 1, 8)
        second, _ = fabric.occupy_bus(0, 1, 8)
        assert (first, second) == (0, 0)
        assert fabric.port_recorder().busy_time() == 1  # merged "any port busy"

    def test_port_pick_is_least_loaded_first_unit_on_ties(self):
        fabric = _fabric(1, memory_ports=3)
        requests = [(0, 4), (0, 2), (1, 3), (2, 1), (2, 5), (9, 1)]
        taken = [fabric.occupy_bus(earliest, cycles, 8) for earliest, cycles in requests]
        # Free times before each pick: [0,0,0] LD0, [4,0,0] LD1, [4,2,0] LD2,
        # [4,2,4] LD1, [4,3,4] LD1, [4,8,4] LD0 (tie with LD2).
        assert taken == [(0, 4), (0, 2), (1, 4), (2, 3), (3, 8), (9, 10)]
        assert fabric.port_free == [10, 8, 4]
        assert [unit.intervals() for unit in fabric.port_busy] == [
            [(0, 4), (9, 10)],
            [(0, 2), (2, 3), (3, 8)],
            [(1, 4)],
        ]

    def test_port_recorder_merges_every_unit_when_multi_port(self):
        one = _fabric(1)
        assert one.port_recorder() is one.port_busy[0]
        fabric = _fabric(1, memory_ports=2)
        for earliest, cycles in ((0, 5), (2, 5), (3, 2), (9, 1), (12, 3), (12, 1)):
            fabric.occupy_bus(earliest, cycles, 8)
        combined = fabric.port_recorder()
        assert combined.name == "LD"
        assert [unit.name for unit in fabric.port_busy] == ["LD0", "LD1"]
        assert combined.merged_pairs() == [(0, 7), (9, 10), (12, 15)]

    def test_shift_moves_every_port_and_quiet_is_the_slowest(self):
        fabric = _fabric(1, memory_ports=2)
        fabric.occupy_bus(0, 5, 8)
        assert fabric.port_quiet() == 5
        fabric.shift(10)
        assert fabric.port_free == [15, 10]
        assert fabric.port_quiet() == 15


class TestPortUnits:
    def test_single_port_keeps_bare_name(self):
        fabric = _fabric(1)
        assert [unit.name for unit in fabric.port_busy] == ["LD"]
        assert fabric.port_free == [0]

    def test_multi_port_names_are_numbered(self):
        fabric = _fabric(1, memory_ports=3)
        assert [unit.name for unit in fabric.port_busy] == ["LD0", "LD1", "LD2"]
        assert fabric.port_free == [0, 0, 0]

    def test_a_machine_needs_a_port(self):
        with pytest.raises(ConfigurationError):
            _fabric(1, memory_ports=0)

    def test_a_reference_waits_for_a_busy_port(self):
        fabric = _fabric(1)
        assert fabric.occupy_bus(0, 10, 8) == (0, 10)
        assert fabric.occupy_bus(3, 5, 8) == (10, 15)  # port busy until 10

    def test_port_free_tracks_each_unit(self):
        fabric = _fabric(1, memory_ports=2)
        fabric.occupy_bus(0, 7, 8)
        assert fabric.port_free == [7, 0]
        fabric.occupy_bus(0, 3, 8)
        assert fabric.port_free == [7, 3]

    def test_a_late_request_leaves_the_port_idle_until_it(self):
        fabric = _fabric(1)
        fabric.occupy_bus(0, 2, 8)
        assert fabric.occupy_bus(10, 3, 8) == (10, 13)
        assert fabric.port_busy[0].intervals() == [(0, 2), (10, 13)]
        assert fabric.port_recorder().busy_time() == 5

    def test_traffic_counts_every_reference_on_every_port(self):
        fabric = _fabric(1, memory_ports=2)
        for cycles, traffic in ((4, 32), (4, 32), (1, 8)):
            fabric.occupy_bus(0, cycles, traffic)
        assert fabric.traffic_bytes == 72
        assert [len(unit) for unit in fabric.port_busy] == [2, 1]

    def test_relative_is_free_times_from_the_origin_and_a_copy_of_the_tags(self):
        fabric = _fabric(1, memory_ports=2)
        fabric.occupy_bus(0, 7, 8)
        fabric.cache.access(0x1000)
        free, tags = fabric.relative(5)
        assert free == (2, -5)
        assert tags == fabric.cache.tags
        fabric.cache.access(0x9000)
        assert tags != fabric.cache.tags  # the fingerprint keeps its own copy
