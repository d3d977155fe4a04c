"""The perf advisory reads ledgers, warns past its bounds and never fails."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "perf_advisory.py"
_spec = importlib.util.spec_from_file_location("perf_advisory", _SCRIPT)
perf_advisory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_advisory)

_BASELINE = {
    "cpu_count": 2,
    "python": "3.11.7",
    "tolerance": 0.3,
    "pool_batch_ms_per_cell_ceiling": 2.0,
    "metrics": {
        "dva.insns_per_s": 200000.0,
        "refarch.insns_per_s": 500000.0,
        "trace.records_per_s": 600000.0,
    },
}


def _ledger(tmp_path, dva, ref, trace=650000.0):
    host = {"workload": "paper-cold", "cpu_count": 4, "python": "3.12.1"}
    result = {
        "correct": True,
        "metrics": {
            "dva.insns_per_s": {"value": dva, "unit": "1/s"},
            "refarch.insns_per_s": {"value": ref, "unit": "1/s"},
            "trace.records_per_s": {"value": trace, "unit": "1/s"},
        },
    }
    path = tmp_path / "ledger.txt"
    path.write_text("layer table\n" + json.dumps(host) + "\n" + json.dumps(result) + "\n")
    return path


def _serve_ledger(tmp_path, pool_batch_s, misses):
    host = {"workload": "serve-mixed", "cpu_count": 2, "python": "3.11.7"}
    result = {
        "correct": True,
        "metrics": {
            "pool.batch_s": {"value": pool_batch_s, "unit": "s"},
            "service.misses": {"value": misses, "unit": "count"},
        },
    }
    path = tmp_path / "serve.txt"
    path.write_text("layer table\n" + json.dumps(host) + "\n" + json.dumps(result) + "\n")
    return path


def _warnings(out):
    return [line for line in out.splitlines() if line.startswith("::warning")]


@pytest.fixture
def baseline(tmp_path, monkeypatch):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(_BASELINE))
    monkeypatch.setattr(perf_advisory, "BASELINE_PATH", path)


def test_committed_baseline_names_every_rate():
    committed = json.loads(perf_advisory.BASELINE_PATH.read_text())
    assert set(committed["metrics"]) == set(perf_advisory.METRICS)
    assert {"cpu_count", "python", "tolerance"} <= set(committed)
    assert committed["pool_batch_ms_per_cell_ceiling"] > 0


def test_rates_within_tolerance_do_not_warn(tmp_path, baseline, capsys, monkeypatch):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    ledger = _ledger(tmp_path, dva=150000.0, ref=520000.0)
    assert perf_advisory.main([str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "::warning" not in out
    assert "4 CPUs, Python 3.12.1" in summary.read_text()
    assert "no warning" in summary.read_text()


def test_rate_below_tolerance_warns(tmp_path, baseline, capsys, monkeypatch):
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    ledger = _ledger(tmp_path, dva=100000.0, ref=500000.0)
    assert perf_advisory.main([str(ledger)]) == 0
    warnings = [
        line for line in capsys.readouterr().out.splitlines() if line.startswith("::warning")
    ]
    assert len(warnings) == 1
    assert "dva.insns_per_s" in warnings[0] and "50% below" in warnings[0]


def test_slow_trace_build_warns(tmp_path, baseline, capsys, monkeypatch):
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    ledger = _ledger(tmp_path, dva=200000.0, ref=500000.0, trace=300000.0)
    assert perf_advisory.main([str(ledger)]) == 0
    out = capsys.readouterr().out
    warnings = [line for line in out.splitlines() if line.startswith("::warning")]
    assert len(warnings) == 1
    assert "trace.records_per_s" in warnings[0] and "50% below" in warnings[0]
    assert "| trace.records_per_s | 600,000 | 300,000 | 0.50x |" in out


def test_missing_ledger_still_exits_zero(tmp_path, baseline, capsys, monkeypatch):
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    missing = tmp_path / "absent.txt"
    assert perf_advisory.main([str(missing)]) == 0
    assert "advisory skipped" in capsys.readouterr().out


class TestDispatchAdvisory:
    """``--serve``: the pool worker's own time per simulated cell."""

    def test_worker_time_under_the_ceiling_does_not_warn(
        self, tmp_path, baseline, capsys, monkeypatch
    ):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        ledger = _ledger(tmp_path, dva=200000.0, ref=500000.0)
        serve = _serve_ledger(tmp_path, pool_batch_s=0.0072, misses=36)
        assert perf_advisory.main([str(ledger), "--serve", str(serve)]) == 0
        out = capsys.readouterr().out
        assert _warnings(out) == []
        assert "0.200 ms over 36 cells (ceiling 2.000 ms)" in out

    def test_worker_time_over_the_ceiling_warns(
        self, tmp_path, baseline, capsys, monkeypatch
    ):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        ledger = _ledger(tmp_path, dva=200000.0, ref=500000.0)
        # A forced full collection per one-cell batch: about 12 ms a cell.
        serve = _serve_ledger(tmp_path, pool_batch_s=0.45, misses=36)
        assert perf_advisory.main([str(ledger), "--serve", str(serve)]) == 0
        warnings = _warnings(capsys.readouterr().out)
        assert len(warnings) == 1
        assert "12.500 ms per simulated cell" in warnings[0]
        assert "ceiling 2.000 ms" in warnings[0]

    def test_missing_serve_ledger_still_exits_zero(
        self, tmp_path, baseline, capsys, monkeypatch
    ):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        ledger = _ledger(tmp_path, dva=200000.0, ref=500000.0)
        missing = tmp_path / "absent.txt"
        assert perf_advisory.main([str(ledger), "--serve", str(missing)]) == 0
        out = capsys.readouterr().out
        warnings = _warnings(out)
        assert len(warnings) == 1
        assert "advisory skipped" in warnings[0] and "absent.txt" in warnings[0]
        # The hot-loop rates are still compared.
        assert "| dva.insns_per_s | 200,000 | 200,000 | 1.00x |" in out
