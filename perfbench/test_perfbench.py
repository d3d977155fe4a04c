"""Self-tests of the benchmark's own code (collected by the repository's pytest run)."""

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import grids, ledger, serve, tracer

BENCHMARK = grids.ROOT / "BENCHMARK.json"


def test_stream_is_reproducible_and_has_the_promised_mix():
    cells = grids.universe_cells()
    stream = serve.request_stream(cells, seed=7, epoch=0)
    assert stream == serve.request_stream(cells, seed=7, epoch=0)
    assert stream != serve.request_stream(cells, seed=8, epoch=0)
    assert stream != serve.request_stream(cells, seed=7, epoch=1)

    firsts = [cell for cell, first in stream if first]
    assert sorted(firsts) == sorted(cells)  # every cell requested first exactly once
    assert len(stream) == 539  # two first requests in every five, ending on one
    assert [first for _cell, first in stream[:10]] == [True, False, False, True, False] * 2
    seen = set()
    for cell, first in stream:
        assert first == (cell not in seen)  # a repeat only names an earlier cell
        seen.add(cell)


def test_stream_bodies_name_cells_the_service_understands():
    body = json.loads(serve.request_body(("TRFD", 50, "dva@lanes=2,ports=2")))
    assert body == {"program": "TRFD", "arch": "dva@lanes=2,ports=2", "latency": 50}


def _span(span_id, name, start, end, parent=None, count=0):
    return [span_id, name, start, end, parent, None, count]


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        _span(0, "runner.run", 0.0, 10.0),
        _span(1, "dva.run", 1.0, 3.0, parent=0, count=5),
        _span(2, "dva.run", 2.0, 5.0, parent=0, count=7),  # overlaps span 1
        _span(3, "store.put", 8.0, 12.0, parent=0),  # runs past its parent
        _span(4, "result.package", 1.5, 2.5, parent=1),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)

    totals = tracer.layer_totals(spans)
    assert totals["dva.run"] == {"self_s": 4.0, "total_s": 5.0, "calls": 2, "count": 12}
    metrics = ledger.layer_metrics([totals])
    assert metrics["runner.unattributed_s"] == pytest.approx(4.0)
    assert metrics["dva.insns_per_s"] == pytest.approx(12 / 4.0)


def test_span_files_keep_parent_links_per_process(tmp_path):
    (tmp_path / "11.jsonl").write_text(
        json.dumps([11, [_span(0, "pool.batch", 0, 2), _span(1, "dva.run", 0.5, 1.5, 0)]]) + "\n"
    )
    (tmp_path / "12.jsonl").write_text(json.dumps([12, [_span(0, "pool.batch", 0, 1)]]) + "\n")
    spans = tracer.load_span_files(tmp_path)
    selfs = tracer.self_times(spans)
    assert selfs[(11, 0)] == pytest.approx(1.0)
    assert selfs[(12, 0)] == pytest.approx(1.0)
    assert not list(tmp_path.iterdir())


def test_expected_table_covers_every_cell_of_u_and_agrees_with_golden():
    expected = grids.load_expected()
    cells = grids.universe_cells()
    assert len(cells) == 216
    assert set(expected) == {grids.cell_id(*cell) for cell in cells}
    assert Counter(label.split("@")[0] for _p, _l, label in cells) == {"ref": 108, "dva": 108}
    assert not grids.golden_disagreements(expected, grids.load_golden())


def test_benchmark_json_lists_the_ledger_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(ledger.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(ledger.PER_LAYER)
    run = __import__("perfbench.run", fromlist=["WORKLOADS"])
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def _run(*args, cwd=grids.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["paper-cold", "resume-warm", "serve-mixed"])
def test_reduced_smoke_pass(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = ledger.PER_LAYER if trace == "1" else ledger.END_TO_END
    assert list(result["metrics"]) == [name for name, _unit in names]
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    else:
        assert "runner.unattributed" in done.stdout or workload == "serve-mixed"
        assert "tracing overhead" in done.stdout


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(grids.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    done = _run("--workload", "paper-cold", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
