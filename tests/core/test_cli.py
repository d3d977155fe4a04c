"""Smoke tests for the ``python -m repro`` command line."""

import json
import os
import signal
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
            (["sweep", "--programs", "trfd,TRFD", "--latencies", "1"], "programs repeat"),
            (["sweep", "--programs", "trfd", "--latencies", "1,50,1"], "latencies repeat"),
            *(
                (command + [f"--scale={scale}"], "scale")
                for command in (
                    ["run", "--program", "dyfesm"],
                    ["sweep", "--programs", "dyfesm", "--latencies", "1"],
                )
                for scale in ("nan", "inf", "-inf", "1e308")
            ),
            # A trace over the row limit is refused by its row count.
            (["run", "--program", "trfd", "--scale", "1e30"], "rows"),
            (["sweep", "--programs", "trfd", "--latencies", "1", "--scale", "1e4"], "rows"),
        ],
    )
    def test_invalid_inline_spec_exits_with_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--programs", "trfd", "--latencies", "1", "--output", "{tmp}/no-dir/x.json"],
            ["sweep", "--programs", "trfd", "--latencies", "1", "--output", "{tmp}"],
            ["figures", "--programs", "trfd", "--latencies", "1", "--out-dir", "{tmp}/a-file"],
        ],
        ids=["sweep --output", "sweep --output a directory", "figures --out-dir"],
    )
    def test_an_unwritable_output_fails_before_any_cell_runs(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        (tmp_path / "a-file").write_text("")
        monkeypatch.setattr("repro.core.experiment.Runner.run", _detonate)
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("port", ["70000", "65536", "-1", "http"])
    def test_serve_refuses_a_port_out_of_range(self, capsys, monkeypatch, port):
        monkeypatch.setattr("repro.service.serve", _detonate)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", port])
        assert excinfo.value.code == 2
        assert "argument --port: expected a port number 0-65535" in capsys.readouterr().err

    def test_one_machine_named_twice_is_a_usage_error(self, capsys):
        """``dva,dva-nobypass`` crossed with ``bypass=on,off`` names each machine twice."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--programs", "trfd", "--latencies", "1",
                  "--arch", "dva,dva-nobypass", "--axis", "bypass=on,off", "--no-store"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "are the same machine, 'dva'" in err

    def test_list_archs_default_listing(self, capsys):
        assert main(["list-archs"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "ref", "dva", "dva-nobypass"
        ]
        assert "dva@bypass=off" in out  # canonical spec string per preset

    def test_list_archs_schema(self, capsys):
        assert main(["list-archs", "--schema"]) == 0
        out = capsys.readouterr().out
        assert "machine fields" in out
        assert "1..64" in out  # lanes range
        assert "on|off" in out  # bypass range
        assert "presets" in out
        assert "family=dva" in out
        assert "bypass=False" in out  # dva-nobypass's one non-default field
        # The aliases column holds the attribute name, the one other spelling.
        rows = out.split("\npresets")[0].splitlines()
        aliases = {row.split()[0]: row.split()[1] for row in rows if row.strip()}
        assert {key: aliases[key] for key in ("lanes", "cache_line", "cache_lines")} == {
            "lanes": "-", "cache_line": "cache_line_bytes", "cache_lines": "-"
        }

    def test_list_archs_schema_shows_what_runs(self, capsys):
        """Each preset lists the fields it runs at, beyond the defaults."""
        assert main(["list-archs", "--schema"]) == 0
        presets = capsys.readouterr().out.split("\npresets")[1].splitlines()[1:]
        fields = {line.split()[0]: line.split()[2:] for line in presets}
        assert fields == {"ref": ["-"], "dva": ["-"], "dva-nobypass": ["bypass=False"]}

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

    @pytest.mark.parametrize("axis", ["lanes", "=1,2"])
    def test_malformed_sweep_axis_errors_cleanly(self, capsys, axis):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--programs", "trfd", "--latencies", "1", "--arch", "dva",
                  "--axis", axis, "--no-store"])
        assert excinfo.value.code == 2
        assert "malformed sweep axis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--programs", "trfd", "--latencies", "1", "--jobs", "0"],
            ["sweep", "--programs", "trfd", "--latencies", "1", "--jobs", "-3"],
            ["figures", "--jobs", "0"],
            ["serve", "--port", "0", "--jobs", "0"],
            ["serve", "--port", "0", "--jobs", "two"],
        ],
    )
    def test_a_non_positive_job_count_is_a_usage_error_naming_the_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "argument --jobs: expected a positive integer" in capsys.readouterr().err


class TestCacheVerify:
    def _filled_store(self, tmp_path):
        store = tmp_path / "store"
        assert main(
            ["sweep", "--programs", "trfd", "--latencies", "1,100",
             "--arch", "ref,dva", "--scale", "0.5", "--store-dir", str(store)]
        ) == 0
        return store

    def test_entries_identical_to_a_row_by_row_simulation_pass(self, capsys, tmp_path):
        store = self._filled_store(tmp_path)
        capsys.readouterr()
        assert main(["cache", "verify", "--store-dir", str(store)]) == 0
        assert "verified 4 entries: 4 identical, 0 different, 0 stale" in capsys.readouterr().out
        assert main(["cache", "verify", "--store-dir", str(store), "--sample", "2"]) == 0
        assert "verified 2 entries: 2 identical" in capsys.readouterr().out

    def test_a_tampered_entry_fails_naming_the_cell(self, capsys, tmp_path):
        store = self._filled_store(tmp_path)
        entry = next(store.rglob("*.json"))
        payload = json.loads(entry.read_text())
        payload["result"]["detail"]["total_cycles"] += 1
        entry.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["cache", "verify", "--store-dir", str(store)]) == 1
        out = capsys.readouterr().out
        cell = payload["meta"]
        assert f"different: TRFD/{cell['latency']}/{cell['architecture']} (scale 0.5): total_cycles" in out
        assert "1 different" in out

    def test_an_entry_under_a_foreign_key_is_stale_not_different(self, capsys, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(self._filled_store(tmp_path))
        result = store.get(store.entries()[0].key)
        store.put("ab" * 32, result, scale=0.5)
        capsys.readouterr()
        assert main(["cache", "verify", "--store-dir", str(store.root)]) == 0
        assert "4 identical, 0 different, 1 stale" in capsys.readouterr().out

    def test_a_mislabelled_file_is_not_an_entry(self, capsys, tmp_path):
        store = self._filled_store(tmp_path)
        entry = next(store.rglob("*.json"))
        payload = json.loads(entry.read_text())
        payload["key"] = "not-a-key"
        (entry.parent / "deadbeef.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["cache", "verify", "--store-dir", str(store)]) == 0
        assert "verified 4 entries: 4 identical, 0 different, 0 stale" in capsys.readouterr().out
        assert main(["cache", "stats", "--json", "--store-dir", str(store)]) == 0
        assert json.loads(capsys.readouterr().out)["entry_count"] == 4
        assert main(["cache", "gc", "--max-age-days", "0", "--store-dir", str(store)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--store-dir", str(store)]) == 0
        assert json.loads(capsys.readouterr().out)["entry_count"] == 0

    @pytest.mark.parametrize(
        "label, text",
        [("dva@bypass=off", "dva-nobypass"), ("dva-nobypass@lanes=2", "dva@lanes=2,bypass=off")],
    )
    def test_an_entry_under_a_retired_label_is_stale(self, capsys, tmp_path, label, text):
        """An entry keyed by a label this code no longer gives its machine.

        ``cell_key`` reads only a machine's ``name`` and ``spec``, so a
        stand-in with the retired label computes the key it was filed under.
        """
        from dataclasses import replace
        from types import SimpleNamespace

        from repro.core import RunConfig, architecture
        from repro.store import ResultStore, cell_key
        from repro.workloads.perfect_club import build_trace

        store = ResultStore(tmp_path / "store")
        machine = architecture(text)
        retired = SimpleNamespace(name=label, spec=machine.spec)
        config = RunConfig(latency=1)
        result = machine.simulate(build_trace("TRFD", scale=0.5), config)
        result = replace(result, architecture=label)
        store.put(cell_key("TRFD", 0.5, 1, retired, config), result, scale=0.5)
        assert main(["cache", "verify", "--store-dir", str(store.root)]) == 0
        assert "0 identical, 0 different, 1 stale" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field", [{"warp": 9}, {"lanes": 0}], ids=["unknown-field", "out-of-range"]
    )
    def test_an_entry_whose_spec_no_longer_builds_is_stale(self, capsys, tmp_path, field):
        store = self._filled_store(tmp_path)
        entry = next(store.rglob("*.json"))
        payload = json.loads(entry.read_text())
        payload["result"]["spec"].update(field)
        entry.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["cache", "verify", "--store-dir", str(store)]) == 0
        assert "3 identical, 0 different, 1 stale" in capsys.readouterr().out

    @pytest.mark.parametrize("sample", ["0", "-1", "x"])
    def test_a_non_positive_sample_is_a_usage_error(self, capsys, sample):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "verify", "--sample", sample])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err


def _detonate(*args, **kwargs):
    raise AssertionError("the command ran past its argument checks")


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestSubprocess:
    def test_python_dash_m_repro(self):
        env = _subprocess_env()
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

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_is_an_error_not_a_traceback(self, scale):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--program", "dyfesm",
             "--scale", scale],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            timeout=120,
        )
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stderr.startswith("error: ")
        assert completed.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["list-programs"],
            ["sweep", "--programs", "trfd,dyfesm", "--latencies", "1,50", "--arch", "ref,dva",
             "--scale", "0.2", "--no-store"],
        ],
    )
    def test_a_closed_stdout_ends_the_command_quietly(self, command):
        # The reader is gone before the command writes a byte, so its first
        # write fails with EPIPE every time.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", *command],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=_subprocess_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert completed.returncode == 1
        assert completed.stderr == ""


#: ``repro`` whose every simulation announces its process and then sleeps, so
#: a test can interrupt a sweep once its cells (and, pooled, its workers) run.
_SLOW_REPRO = (
    "import os, sys, time\n"
    "from repro.core import experiment\n"
    "from repro.core.cli import main\n"
    "from repro.core.registry import SpecArchitecture\n"
    "experiment._available_parallelism = lambda: 2\n"
    "def simulate(self, trace, config):\n"
    "    print('simulating in', os.getpid(), flush=True)\n"
    "    time.sleep(2)\n"
    "SpecArchitecture.simulate = simulate\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestInterrupt:
    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "pooled"])
    def test_sigint_prints_one_line_and_ends_the_sweep_by_the_signal(self, jobs, deadline):
        sweep = subprocess.Popen(
            [sys.executable, "-c", _SLOW_REPRO, "sweep", "--programs", "trfd,dyfesm",
             "--latencies", "1", "--arch", "dva", "--scale", "0.05", "--no-store",
             "--jobs", jobs],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
        )
        with deadline(60):
            pids = {int(sweep.stdout.readline().split()[-1]) for _ in range(int(jobs))}
            sweep.send_signal(signal.SIGINT)
            _out, err = sweep.communicate()
        assert sweep.returncode == -signal.SIGINT
        assert err == "interrupted\n"
        assert (pids == {sweep.pid}) if jobs == "1" else (sweep.pid not in pids)
        assert not [pid for pid in pids if _alive(pid)]


class TestOutputFile:
    @pytest.mark.parametrize("failure", ["unknown-program", "failing-run"])
    def test_a_failing_sweep_leaves_an_existing_output_untouched(
        self, capsys, monkeypatch, tmp_path, failure
    ):
        from repro.common.errors import SimulationError

        def fail(*args, **kwargs):
            raise SimulationError("the sweep failed")

        program = "nosuch"  # refused when the sweep runs, after the file is made
        if failure == "failing-run":
            program = "trfd"
            monkeypatch.setattr("repro.core.experiment.Runner.run", fail)
        output = tmp_path / "out.json"
        output.write_bytes(b'{"an earlier": "sweep"}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--programs", program, "--latencies", "1", "--no-store",
                  "--output", str(output)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert output.read_bytes() == b'{"an earlier": "sweep"}\n'
        assert [path.name for path in tmp_path.iterdir()] == ["out.json"]
