"""Tests for the engine-derived architecture variants (ref-2lane, dva-2port)."""

import pytest

from repro.core import RunConfig, architecture, architecture_names, simulate
from repro.core.experiment import SweepSpec, run_sweep
from repro.core import figures
from repro.dva.config import DecoupledConfig
from repro.refarch.config import ReferenceConfig
from repro.workloads.perfect_club import build_trace


@pytest.fixture(scope="module")
def trace():
    return build_trace("DYFESM", scale=0.2)


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(
        SweepSpec(
            programs=("dyfesm",),
            latencies=(1, 50),
            architectures=("ref", "ref-2lane", "dva", "dva-2port"),
            scale=0.2,
        )
    )


class TestRegistration:
    def test_variants_are_registered(self):
        names = architecture_names()
        assert "ref-2lane" in names
        assert "dva-2port" in names

    def test_variant_parameters(self):
        assert architecture("ref-2lane").lanes == 2
        assert architecture("dva-2port").memory_ports == 2

    def test_variants_pin_their_datapath(self, trace):
        """Like bypass on "dva", the registry name wins over the RunConfig."""
        wide_config = RunConfig(
            latency=50,
            reference=ReferenceConfig(lanes=8),
            decoupled=DecoupledConfig(memory_ports=8),
        )
        pinned_ref = architecture("ref").simulate(trace, wide_config)
        plain_ref = simulate(trace, "ref", latency=50)
        assert pinned_ref.total_cycles == plain_ref.total_cycles

        pinned_dva = architecture("dva").simulate(trace, wide_config)
        plain_dva = simulate(trace, "dva", latency=50)
        assert pinned_dva.total_cycles == plain_dva.total_cycles


class TestTiming:
    def test_two_lanes_never_slower(self, sweep):
        for latency in sweep.spec.latencies:
            base = sweep.get("DYFESM", latency, "ref")
            wide = sweep.get("DYFESM", latency, "ref-2lane")
            assert wide.total_cycles <= base.total_cycles

    def test_two_lanes_speed_up_compute_bound_run(self, sweep):
        """DYFESM at latency 1 is compute bound; halving lane time must show."""
        base = sweep.get("DYFESM", 1, "ref")
        wide = sweep.get("DYFESM", 1, "ref-2lane")
        assert wide.total_cycles < base.total_cycles

    def test_two_ports_never_slower(self, sweep):
        for latency in sweep.spec.latencies:
            base = sweep.get("DYFESM", latency, "dva")
            wide = sweep.get("DYFESM", latency, "dva-2port")
            assert wide.total_cycles <= base.total_cycles

    def test_total_cycles_cover_all_port_activity(self, trace):
        """A machine may not report finishing while a port is still driving.

        On a multi-port machine the wind-down must wait for the slowest port
        unit, not the first free one — regression test for the dva-2port
        finish accounting.
        """
        from repro.dva.config import DecoupledConfig
        from repro.dva.simulator import simulate_decoupled
        from repro.refarch.simulator import simulate_reference

        for ports in (1, 2):
            dva = simulate_decoupled(
                trace, latency=50, config=DecoupledConfig(memory_ports=ports)
            )
            assert dva.port_busy.last_end() <= dva.total_cycles
            ref = simulate_reference(
                trace, latency=50, config=ReferenceConfig(memory_ports=ports)
            )
            assert ref.port_busy.last_end() <= ref.total_cycles

    def test_single_lane_single_port_variant_matches_baseline(self, trace):
        """A variant pinned to the paper's widths is the paper's machine."""
        for family in ("ref", "dva"):
            narrow = simulate(trace, f"{family}@lanes=1,ports=1", latency=50)
            assert narrow.total_cycles == simulate(trace, family, latency=50).total_cycles


class TestFiguresIntegration:
    """The figures layer must accept the variants without special-casing."""

    def test_speedup_table_against_variant_target(self, sweep):
        rows = figures.speedup_table(sweep, target="ref-2lane")
        assert rows and all(row["speedup"] >= 1.0 for row in rows)

    def test_speedup_table_variant_baseline(self, sweep):
        rows = figures.speedup_table(sweep, baseline="dva", target="dva-2port")
        assert rows and all(row["speedup"] >= 1.0 for row in rows)

    def test_queue_occupancy_rows_for_two_port_dva(self, sweep):
        rows = figures.queue_occupancy_rows(sweep, architecture="dva-2port")
        assert rows
        assert {row["program"] for row in rows} == {"DYFESM"}

    def test_variant_results_summarize(self, sweep):
        for result in sweep:
            summary = result.summary()
            assert summary["architecture"] == result.architecture
            assert summary["total_cycles"] == result.total_cycles
