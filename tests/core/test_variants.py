"""Tests for the engine-derived architecture variants (ref-2lane, dva-2port)."""

import pytest

from repro.core import MachineSpec, architecture, architecture_names, simulate
from repro.core.experiment import SweepSpec, run_sweep
from repro.core import figures
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
        assert architecture("ref-2lane").spec.lanes == 2
        assert architecture("dva-2port").spec.memory_ports == 2

    def test_variants_pin_their_datapath(self, trace):
        """A variant runs exactly the machine its spec names, and not its base."""
        for variant, inline, base in (
            ("ref-2lane", "ref@lanes=2", "ref"),
            ("dva-2port", "dva@ports=2", "dva"),
        ):
            cycles = simulate(trace, variant, latency=50).total_cycles
            assert cycles == simulate(trace, inline, latency=50).total_cycles
            assert cycles != simulate(trace, base, latency=50).total_cycles


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
        from repro.dva.simulator import simulate_decoupled
        from repro.refarch.simulator import simulate_reference

        for ports in (1, 2):
            dva = simulate_decoupled(
                trace, 50, MachineSpec(family="dva", bypass=False, memory_ports=ports)
            )
            assert dva.port_busy.merged_pairs()[-1][1] <= dva.total_cycles
            ref = simulate_reference(
                trace, 50, MachineSpec(family="ref", memory_ports=ports)
            )
            assert ref.port_busy.merged_pairs()[-1][1] <= ref.total_cycles

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
