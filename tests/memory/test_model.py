"""Tests for the main-memory timing model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.memory.model import MemoryModel, MemoryTimings


class TestMemoryTimings:
    def test_defaults(self):
        timings = MemoryTimings()
        assert timings.latency == 1
        assert timings.bus_cycles_per_element == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryTimings(latency=-1)
        with pytest.raises(ConfigurationError):
            MemoryTimings(bus_cycles_per_element=0)
        with pytest.raises(ConfigurationError):
            MemoryTimings(scalar_bus_cycles=0)


class TestMemoryModel:
    def test_constructor_guard(self):
        with pytest.raises(ConfigurationError):
            MemoryModel(timings=MemoryTimings(), latency=5)

    def test_latency_shortcut(self):
        assert MemoryModel(latency=30).latency == 30
        assert MemoryModel().latency == 1

    def test_bus_cycles(self):
        model = MemoryModel(latency=10)
        assert model.vector_bus_cycles(50) == 50
        assert model.vector_bus_cycles(7) == 7
        assert model.scalar_bus_cycles == 1

    def test_zero_length_vector_still_issues(self):
        model = MemoryModel(latency=10)
        assert model.vector_bus_cycles(0) == 1

    def test_load_ready_includes_latency_and_streaming(self):
        model = MemoryModel(latency=30)
        assert model.load_ready(bus_start=100, bus_cycles=64) == 100 + 30 + 64
        assert model.first_element_arrival(bus_start=100) == 130

    def test_with_latency_preserves_other_parameters(self):
        base = MemoryModel(MemoryTimings(latency=1, bus_cycles_per_element=2))
        derived = base.with_latency(70)
        assert derived.latency == 70
        assert derived.timings.bus_cycles_per_element == 2
        assert base.latency == 1
