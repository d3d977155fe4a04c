"""Smoke tests for the ``python -m repro`` command line."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.cli import main

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


class TestInProcess:
    def test_list_programs(self, capsys):
        assert main(["list-programs"]) == 0
        out = capsys.readouterr().out
        for name in ("ARC2D", "FLO52", "BDNA", "TRFD", "DYFESM", "SPEC77"):
            assert name in out

    def test_run_prints_json_summary(self, capsys):
        code = main(
            ["run", "--program", "trfd", "--arch", "dva",
             "--latency", "50", "--scale", "0.2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["architecture"] == "dva"
        assert summary["program"] == "TRFD"
        assert summary["latency"] == 50
        assert summary["total_cycles"] > 0

    def test_sweep_emits_summaries_and_speedup_table(self, capsys):
        code = main(
            ["sweep", "--programs", "dyfesm,trfd", "--latencies", "1,50",
             "--arch", "ref,dva", "--scale", "0.2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "8 cells" in out
        assert "total_cycles" in out
        assert "Figure 5" in out and "speedup" in out

    def test_sweep_output_json(self, capsys, tmp_path):
        output = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--programs", "trfd", "--latencies", "1",
             "--arch", "ref", "--scale", "0.2", "--output", str(output)]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert data["spec"]["programs"] == ["TRFD"]
        assert len(data["results"]) == 1

    def test_figures_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "figs"
        code = main(
            ["figures", "--programs", "trfd", "--latencies", "1,100",
             "--scale", "0.2", "--out-dir", str(out_dir)]
        )
        assert code == 0
        for artifact in (
            "figure5_speedup.csv",
            "figure5_speedup_nobypass.csv",
            "figure6_avdq_occupancy.csv",
            "section7_bypass.csv",
            "sweep.json",
        ):
            assert (out_dir / artifact).exists(), artifact

    def test_unknown_architecture_exits_with_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--program", "trfd", "--arch", "vliw"])
        assert excinfo.value.code == 2
        assert "unknown architecture" in capsys.readouterr().err

    def test_run_accepts_inline_machine_spec(self, capsys):
        code = main(
            ["run", "--program", "trfd", "--arch", "dva@lanes=2,ports=2",
             "--latency", "50", "--scale", "0.2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["architecture"] == "dva@lanes=2,ports=2"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--program", "trfd", "--arch", "dva@lanes=0"], "lanes"),
            (
                ["sweep", "--programs", "trfd", "--latencies", "1", "--arch", "dva",
                 "--axis", "core=tick"],
                "unknown machine field 'core'",
            ),
            (["run", "--program", "trfd", "--" + "core", "event"], "unrecognized arguments"),
        ],
    )
    def test_invalid_inline_spec_exits_with_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_list_archs_default_listing(self, capsys):
        assert main(["list-archs"]) == 0
        out = capsys.readouterr().out
        assert "dva-2port" in out
        assert "dva@ports=2" in out  # canonical spec string per preset

    def test_list_archs_schema(self, capsys):
        assert main(["list-archs", "--schema"]) == 0
        out = capsys.readouterr().out
        assert "machine fields" in out
        assert "1..64" in out  # lanes range
        assert "on|off" in out  # bypass range
        assert "presets" in out
        assert "family=dva" in out
        assert "memory_ports=2*" in out  # dva-2port pins its ports

    def test_multi_axis_sweep_end_to_end(self, capsys, tmp_path):
        """CLI → Runner(jobs=2) → JSON → figures, over lanes × ports × latency."""
        output = tmp_path / "axes.json"
        code = main(
            ["sweep", "--programs", "trfd", "--latencies", "1,50",
             "--arch", "dva", "--axis", "lanes=1,2", "--axis", "ports=1,2",
             "--scale", "0.2", "--jobs", "2", "--output", str(output)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "8 cells" in out
        assert "2 lanes x 2 ports" in out
        assert "dva@lanes=2,ports=2" in out

        from repro.core import figures
        from repro.core.experiment import SweepResult

        rebuilt = SweepResult.from_json(json.loads(output.read_text()))
        assert rebuilt.spec.axes == (("lanes", (1, 2)), ("ports", (1, 2)))
        rows = figures.speedup_table(
            rebuilt, baseline="dva", target="dva@lanes=2,ports=2"
        )
        assert rows and all(row["speedup"] >= 1.0 for row in rows)

    def test_sweep_latency_axis_without_latencies_flag(self, capsys):
        code = main(
            ["sweep", "--programs", "trfd", "--arch", "ref,dva",
             "--axis", "latency=1,50", "--scale", "0.2"]
        )
        assert code == 0
        assert "4 cells" in capsys.readouterr().out

    def test_sweep_without_any_latency_errors_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--programs", "trfd", "--arch", "ref"])
        assert excinfo.value.code == 2
        assert "memory latency" in capsys.readouterr().err


class TestSubprocess:
    def test_python_dash_m_repro(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "sweep",
             "--programs", "trfd", "--latencies", "1,50",
             "--arch", "ref,dva", "--scale", "0.2", "--jobs", "2"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "Figure 5" in completed.stdout
