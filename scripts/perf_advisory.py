"""Advisory check of the rates and dispatch cost in benchmark layer ledgers.

Usage, from the repository root::

    python perfbench/run.py --workload paper-cold --seed 1 --seconds 10 --trace 1 > ledger.txt
    python perfbench/run.py --workload serve-mixed --smoke --seed 1 --seconds 5 --trace 1 > serve.txt
    python scripts/perf_advisory.py ledger.txt --serve serve.txt

The ledger's last line is the benchmark's JSON result, holding the hot-loop
rates ``dva.insns_per_s`` and ``refarch.insns_per_s`` and the trace-build
rate ``trace.records_per_s``; the line before it describes
the host (CPU count, Python version).  Each rate is compared with
``perf_baseline.json`` next to this script.  A rate more than the baseline's
tolerance below it prints a GitHub ``::warning::`` line.

The serve ledger (``--serve``) gives the worker's own time per simulated
cell: ``pool.batch_s`` (the self time of the pool worker's batch, outside
simulation, packaging and store writes) over ``service.misses``.  Above the
baseline's ``pool_batch_ms_per_cell_ceiling`` it warns too; a forced garbage
collection after every batch once cost about 12 ms per cell there.

The comparisons are appended to ``$GITHUB_STEP_SUMMARY`` when that variable
is set.  The check is advisory: it runs no benchmark of its own and always
exits 0, also when a ledger is missing or unreadable.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Dict, List, Tuple

BASELINE_PATH = Path(__file__).resolve().with_name("perf_baseline.json")
METRICS = ("dva.insns_per_s", "refarch.insns_per_s", "trace.records_per_s")


def read_ledger(path: Path) -> Tuple[Dict[str, object], Dict[str, float]]:
    """``(host, metrics)`` from the last two JSON lines of a ledger."""
    lines = [line for line in path.read_text().splitlines() if line.startswith("{")]
    result = json.loads(lines[-1])
    host = json.loads(lines[-2]) if len(lines) > 1 else {}
    metrics = {name: float(entry["value"]) for name, entry in result["metrics"].items()}
    return host, metrics


def compare(
    baseline: Dict[str, object], host: Dict[str, object], metrics: Dict[str, float]
) -> Tuple[List[str], List[str]]:
    """Markdown summary lines and warning messages for one ledger."""
    tolerance = float(baseline["tolerance"])
    summary = [
        "### hot-loop advisory",
        "",
        f"baseline: {baseline['cpu_count']} CPUs, Python {baseline['python']}; "
        f"this run: {host.get('cpu_count', '?')} CPUs, Python {host.get('python', '?')}; "
        f"warns more than {tolerance:.0%} below the baseline",
        "",
        "| metric | baseline | this run | ratio |",
        "|---|---:|---:|---:|",
    ]
    warnings = []
    for name in METRICS:
        expected = float(baseline["metrics"][name])
        measured = metrics.get(name)
        if measured is None:
            warnings.append(f"{name} is missing from the ledger")
            continue
        ratio = measured / expected
        summary.append(f"| {name} | {expected:,.0f} | {measured:,.0f} | {ratio:.2f}x |")
        if ratio < 1.0 - tolerance:
            warnings.append(
                f"{name} {measured:,.0f}/s is {1.0 - ratio:.0%} below the baseline "
                f"{expected:,.0f}/s (tolerance {tolerance:.0%})"
            )
    return summary, warnings


def compare_dispatch(
    baseline: Dict[str, object], _host: Dict[str, object], metrics: Dict[str, float]
) -> Tuple[List[str], List[str]]:
    """Markdown summary lines and warning messages for one serve ledger."""
    ceiling = float(baseline["pool_batch_ms_per_cell_ceiling"])
    misses = metrics["service.misses"]
    if misses <= 0:
        return [], ["the serve ledger simulated no cell"]
    per_cell = 1e3 * metrics["pool.batch_s"] / misses
    summary = [
        "",
        "### dispatch advisory",
        "",
        f"pool.batch self time per simulated cell: {per_cell:.3f} ms "
        f"over {misses:.0f} cells (ceiling {ceiling:.3f} ms)",
    ]
    warnings = []
    if per_cell > ceiling:
        warnings.append(
            f"pool.batch self time {per_cell:.3f} ms per simulated cell is above "
            f"the ceiling {ceiling:.3f} ms"
        )
    return summary, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ledger", type=Path, help="captured output of perfbench/run.py --trace 1")
    parser.add_argument(
        "--serve", type=Path, help="captured output of a traced serve-mixed run"
    )
    args = parser.parse_args(argv)
    summary: List[str] = []
    warnings: List[str] = []
    checks = [(compare, args.ledger)]
    if args.serve is not None:
        checks.append((compare_dispatch, args.serve))
    for check, ledger in checks:
        try:
            lines, found = check(json.loads(BASELINE_PATH.read_text()), *read_ledger(ledger))
        except (OSError, ValueError, LookupError, TypeError) as exc:
            lines, found = [], [f"advisory skipped for {ledger}: {exc!r}"]
        summary += lines
        warnings += found
    for message in warnings:
        print(f"::warning title=perf advisory::{message}")
    summary += [f"- warning: {message}" for message in warnings] or ["- no warning"]
    print("\n".join(summary))
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a") as handle:
            handle.write("\n".join(summary) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
