"""Tests for multi-axis sweeps: any MachineSpec field as a sweep dimension."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.core import Runner, SweepSpec, figures, run_sweep
from repro.core.experiment import SweepResult, plan_sweep, resolve_sweep_machines


@pytest.fixture(scope="module")
def multi_axis_sweep():
    """lanes × ports × latency over the dva base, run once for the module."""
    spec = SweepSpec(
        programs=("dyfesm",),
        architectures=("dva",),
        scale=0.2,
        axes={"lanes": (1, 2), "ports": (1, 2), "latency": (1, 50)},
    )
    return run_sweep(spec)


class TestSpecAxes:
    def test_latency_axis_folds_into_latencies(self):
        spec = SweepSpec(
            programs=("trfd",), architectures=("ref",),
            axes={"latency": (1, 50, 100)},
        )
        assert spec.latencies == (1, 50, 100)
        assert spec.axes == ()

    def test_latency_given_twice_rejected(self):
        with pytest.raises(ConfigurationError, match="latencies given twice"):
            SweepSpec(
                programs=("trfd",), latencies=(1,), architectures=("ref",),
                axes={"latency": (1, 50)},
            )

    def test_axis_declared_twice_rejected(self):
        with pytest.raises(ConfigurationError, match="declared twice"):
            SweepSpec(
                programs=("trfd",), latencies=(1,), architectures=("ref",),
                axes=(("lanes", (1, 2)), ("lanes", (2, 4))),
            )

    def test_axis_names_canonicalized(self):
        spec = SweepSpec(
            programs=("trfd",), latencies=(1,), architectures=("dva",),
            axes={"memory_ports": (1, 2)},
        )
        assert spec.axes == (("ports", (1, 2)),)

    def test_len_counts_axis_product(self):
        spec = SweepSpec(
            programs=("trfd", "dyfesm"), latencies=(1, 50),
            architectures=("dva",),
            axes={"lanes": (1, 2, 4), "ports": (1, 2)},
        )
        assert len(spec) == 2 * 2 * 1 * 3 * 2

    def test_planned_cells_carry_the_axis_values(self):
        spec = SweepSpec(
            programs=("trfd",), latencies=(1,), architectures=("dva",),
            axes={"lanes": (1, 2)},
        )
        cells = plan_sweep(spec, None)
        assert [cell.simulator.name for cell in cells] == ["dva", "dva@lanes=2"]
        assert [cell.simulator.spec.lanes for cell in cells] == [1, 2]

    def test_comma_string_axes(self):
        spec = SweepSpec(
            "trfd", "1,50", "dva", axes=(("lanes", "1,2,4"), ("ports", "1,2"))
        )
        assert spec.axes == (("lanes", (1, 2, 4)), ("ports", (1, 2)))

    def test_comma_string_inline_spec_architectures(self):
        spec = SweepSpec(
            "trfd", "1", "ref,dva@lanes=2,ports=2,dva-nobypass"
        )
        assert spec.architectures == (
            "ref", "dva@lanes=2,ports=2", "dva-nobypass"
        )

    def test_comma_string_two_adjacent_inline_specs(self):
        spec = SweepSpec("trfd", "1", "dva@bypass=off,ref@lanes=2")
        assert spec.architectures == ("dva@bypass=off", "ref@lanes=2")

    def test_axis_overriding_an_inline_pin_labels_the_merged_spec(self):
        """An axis crossing a field the inline base pins labels the machine it
        makes: the lanes=1 cell is the ``dva-nobypass`` preset, and no label
        carries a key twice."""
        spec = SweepSpec(
            programs=("trfd",), latencies=(1,),
            architectures=("dva@lanes=2,bypass=off",),
            axes={"lanes": (1, 2)},
            scale=0.2,
        )
        sweep = run_sweep(spec)
        labels = sweep.architecture_labels()
        assert labels == ["dva-nobypass", "dva@lanes=2,bypass=off"]
        # Every label re-resolves through architecture() to the same machine.
        from repro.core import architecture

        for label in labels:
            assert architecture(label).spec.to_json() == sweep.get("trfd", 1, label).spec


class TestMultiAxisExecution:
    def test_grid_shape_and_labels(self, multi_axis_sweep):
        assert len(multi_axis_sweep) == 2 * 2 * 2
        assert multi_axis_sweep.architecture_labels() == [
            "dva", "dva@ports=2", "dva@lanes=2", "dva@lanes=2,ports=2"
        ]

    def test_axis_values_change_timing(self, multi_axis_sweep):
        base = multi_axis_sweep.get("DYFESM", 1, "dva")
        wide = multi_axis_sweep.get("DYFESM", 1, "dva@lanes=2,ports=2")
        assert wide.total_cycles < base.total_cycles

    def test_every_cell_has_spec_provenance(self, multi_axis_sweep):
        for result in multi_axis_sweep:
            assert result.spec is not None
            assert result.spec["family"] == "dva"

    def test_json_round_trip_preserves_axes(self, multi_axis_sweep):
        payload = json.loads(json.dumps(multi_axis_sweep.to_json()))
        rebuilt = SweepResult.from_json(payload)
        assert rebuilt.spec == multi_axis_sweep.spec
        assert rebuilt.results == multi_axis_sweep.results

    def test_figures_accept_axis_labels(self, multi_axis_sweep):
        rows = figures.speedup_table(
            multi_axis_sweep, baseline="dva", target="dva@lanes=2,ports=2"
        )
        assert rows and all(row["speedup"] >= 1.0 for row in rows)
        occupancy = figures.queue_occupancy_rows(
            multi_axis_sweep, architecture="dva@lanes=2"
        )
        assert occupancy

    def test_serial_and_parallel_identical(self, two_cpus):
        spec = SweepSpec(
            programs=("trfd",), architectures=("ref", "dva"), scale=0.2,
            axes={"lanes": (1, 2), "latency": (1, 50)},
        )
        serial = Runner(jobs=1).run(spec)
        with Runner(jobs=2) as runner:
            parallel = runner.run(spec)
        assert serial.results == parallel.results

    def test_axis_invalid_for_family_fails_before_running(self):
        spec = SweepSpec(
            programs=("trfd",), latencies=(1,), architectures=("ref",),
            axes={"bypass": (True, False)},
        )
        with pytest.raises(ConfigurationError, match="not valid for family"):
            Runner(jobs=1).run(spec)

    def test_duplicate_architecture_entries_fail_before_running(self):
        spec = SweepSpec(
            programs=("trfd",), latencies=(1,), architectures=("dva", "dva"),
        )
        with pytest.raises(ConfigurationError, match="same machine"):
            Runner(jobs=1).run(spec)

    def test_axes_out_of_field_order_label_in_field_order(self):
        """``--axis ports=... --axis lanes=...`` and ``dva@lanes=2,ports=2``
        are one machine, so they have one label."""
        spec = SweepSpec(
            programs=("trfd",), latencies=(1,), architectures=("dva",),
            axes={"ports": (1, 2), "lanes": (1, 2)},
        )
        assert [machine.name for machine in resolve_sweep_machines(spec)] == [
            "dva", "dva@lanes=2", "dva@ports=2", "dva@lanes=2,ports=2"
        ]

    def test_overlapping_bases_fail_before_running(self, monkeypatch):
        """``dva`` and ``dva-nobypass`` crossed with a bypass axis name each of
        the two machines twice, so the grid is refused before any cell runs."""
        from repro.core import SpecArchitecture

        def refuse(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(SpecArchitecture, "simulate", refuse)
        spec = SweepSpec(
            programs=("trfd",), latencies=(50,),
            architectures=("dva", "dva-nobypass"),
            axes={"bypass": ("on", "off")},
            scale=0.2,
        )
        with pytest.raises(ConfigurationError, match="are the same machine, 'dva'"):
            Runner(jobs=1).run(spec)


class TestSweepResultIndex:
    def test_get_uses_the_index(self):
        sweep = run_sweep(
            SweepSpec(programs=("trfd",), latencies=(1,), architectures=("ref",),
                      scale=0.2)
        )
        assert sweep.get("trfd", 1, "REF") is sweep._index[("TRFD", 1, "ref")]

    def test_duplicate_cells_rejected_at_construction(self):
        sweep = run_sweep(
            SweepSpec(programs=("trfd",), latencies=(1,), architectures=("ref",),
                      scale=0.2)
        )
        with pytest.raises(ConfigurationError, match="duplicate cell"):
            SweepResult(spec=sweep.spec, results=sweep.results * 2)

    def test_missing_cell_still_raises(self):
        sweep = run_sweep(
            SweepSpec(programs=("trfd",), latencies=(1,), architectures=("ref",),
                      scale=0.2)
        )
        with pytest.raises(ConfigurationError, match="no cell"):
            sweep.get("trfd", 999, "ref")
