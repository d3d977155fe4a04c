"""The hot-loop advisory reads a ledger, warns below tolerance and never fails."""

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


@pytest.fixture
def baseline(tmp_path, monkeypatch):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(_BASELINE))
    monkeypatch.setattr(perf_advisory, "BASELINE_PATH", path)


def test_committed_baseline_names_every_rate():
    committed = json.loads(perf_advisory.BASELINE_PATH.read_text())
    assert set(committed["metrics"]) == set(perf_advisory.METRICS)
    assert {"cpu_count", "python", "tolerance"} <= set(committed)


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
