"""Advisory check of the per-record rates in a benchmark layer ledger.

Usage, from the repository root::

    python perfbench/run.py --workload paper-cold --seed 1 --seconds 10 --trace 1 > ledger.txt
    python scripts/perf_advisory.py ledger.txt

The ledger's last line is the benchmark's JSON result, holding the hot-loop
rates ``dva.insns_per_s`` and ``refarch.insns_per_s`` and the trace-build
rate ``trace.records_per_s``; the line before it describes
the host (CPU count, Python version).  Each rate is compared with
``perf_baseline.json`` next to this script.  A rate more than the baseline's
tolerance below it prints a GitHub ``::warning::`` line.  The comparison is
appended to ``$GITHUB_STEP_SUMMARY`` when that variable is set.  The check is
advisory: it runs no benchmark of its own and always exits 0, also when the
ledger is missing or unreadable.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ledger", type=Path, help="captured output of perfbench/run.py --trace 1")
    args = parser.parse_args(argv)
    try:
        baseline = json.loads(BASELINE_PATH.read_text())
        summary, warnings = compare(baseline, *read_ledger(args.ledger))
    except (OSError, ValueError, LookupError, TypeError) as exc:
        summary, warnings = [], [f"advisory skipped: {exc!r}"]
    for message in warnings:
        print(f"::warning title=hot-loop advisory::{message}")
    summary += [f"- warning: {message}" for message in warnings] or ["- no warning"]
    print("\n".join(summary))
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a") as handle:
            handle.write("\n".join(summary) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
