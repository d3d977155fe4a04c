#!/usr/bin/env python
"""Benchmark the sweep runner and record the result in BENCH_sweep.json.

Two benchmarks, one report:

1. **Runner modes** — times a small REF+DVA sweep (two programs, three
   latencies) on a serial runner (``jobs=1``) and on a ``jobs=N`` runner.
   Each runner executes the sweep ``--repeats`` times and both the cold
   first run and the best (minimum) of the remaining runs are recorded —
   the same methodology for both modes, so the comparison is between like
   and like: cold-vs-cold shows startup cost (trace building, and for the
   parallel runner its persistent worker pool), warm-vs-warm shows the
   steady-state throughput a long-lived runner delivers.

2. **Result store** — times the paper's full six-program sweep twice
   through a fresh :class:`~repro.store.ResultStore` in a temporary
   directory: once cold (every cell simulated and persisted) and once warm
   (every cell answered by the store).  The ``store`` section of the report
   records both timings and the warm-over-cold speedup — the headline
   number for resumable sweeps.

3. **Distributed sweep** (``cluster2``) — the same grid through
   :class:`~repro.cluster.ClusterCoordinator` with two spawned
   ``repro worker`` *processes* coordinating through a fresh store: cold
   (manifest published, cells claimed/simulated by the workers, result
   assembled) and warm (everything answered by the store; no workers
   spawned at all).  Per-worker claim/steal/complete counters land in the
   report, so the split of work between the two processes is visible.

Before overwriting the output file, the previous report's serial
cold/warm cells-per-second are captured into a ``baseline_comparison``
section (with the speedups of this run over them), so the committed
``BENCH_sweep.json`` always documents the improvement over the last
committed state — e.g. the columnar trace pipeline against the
record-at-a-time seed it replaced.

**Worker counts are reported honestly, up front.**  ``jobs`` is a ceiling:
the runner caps pool workers to the CPUs actually available, so on a
one-CPU machine the ``jobs2`` rows measure the runner's in-process
batch-throughput mode rather than a worker pool, and the ``cluster2``
worker processes time-slice one core — coordination overhead, not
parallel speedup.  The report's top-level ``workers`` section records the
CPU count, the requested and *effective* worker count per mode, and a
``cpu_capped`` flag; the console output prints the same before any
throughput number, so the parallel rows are never mistaken for something
they are not.  Run from the repository root:

    python scripts/bench_sweep.py [--scale S] [--jobs N] [--repeats R] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import ResultStore, Runner, SweepSpec  # noqa: E402
from repro.workloads.perfect_club import program_names  # noqa: E402


def _timed_run(label: str, runner: Runner, spec: SweepSpec) -> dict:
    start = time.perf_counter()
    sweep = runner.run(spec)
    elapsed = time.perf_counter() - start
    cells = len(sweep)
    return {
        "label": label,
        "seconds": round(elapsed, 4),
        "cells": cells,
        "cells_per_second": round(cells / elapsed, 2) if elapsed else None,
        "total_cycles_simulated": sum(result.total_cycles for result in sweep),
    }


def _time_runners(
    runners: "dict[str, Runner]", spec: SweepSpec, repeats: int
) -> list:
    """Time ``repeats`` executions per runner, interleaved round-robin.

    Interleaving makes every mode sample the same background-noise
    environment, which matters on shared machines.  Per mode, the first
    (cold) run and the best of the remaining (warm) runs are reported.
    """
    rows = []
    best: "dict[str, dict]" = {}
    for index in range(repeats):
        for label, runner in runners.items():
            row = _timed_run(
                label if index == 0 else f"{label}_warm", runner, spec
            )
            if index == 0:
                rows.append(row)
            elif label not in best or row["seconds"] < best[label]["seconds"]:
                best[label] = row
    for label in runners:
        if label in best:
            rows.append(best[label])
    return rows


def _bench_store(scale: float) -> dict:
    """Cold-vs-warm timings of the full six-program sweep through the store.

    A fresh temporary store isolates the measurement from any real cache the
    machine carries, and fresh runners for each pass make the warm run model
    the real resumable-sweep scenario: a brand-new process that finds every
    cell already persisted (it never even builds traces).
    """
    spec = SweepSpec.from_strings(
        programs=",".join(program_names()),
        latencies="1,50,100",
        architectures="ref,dva",
        scale=scale,
    )
    root = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        with Runner(jobs=1, store=ResultStore(root)) as runner:
            cold = _timed_run("store_cold", runner, spec)
        with Runner(jobs=1, store=ResultStore(root)) as runner:
            warm_sweep_start = time.perf_counter()
            warm_sweep = runner.run(spec)
            warm_elapsed = time.perf_counter() - warm_sweep_start
    finally:
        shutil.rmtree(root, ignore_errors=True)
    warm = {
        "label": "store_warm",
        "seconds": round(warm_elapsed, 4),
        "cells": len(warm_sweep),
        "cells_per_second": round(len(warm_sweep) / warm_elapsed, 2)
        if warm_elapsed else None,
        "cached_cells": warm_sweep.cached_count,
        "simulated_cells": warm_sweep.simulated_count,
    }
    return {
        "benchmark": "result store (6 programs x 3 latencies x ref,dva)",
        "runs": [cold, warm],
        "warm_speedup_over_cold": round(cold["seconds"] / warm["seconds"], 1)
        if warm["seconds"] else None,
    }


def _bench_cluster(spec: SweepSpec, workers: int) -> dict:
    """Cold-vs-warm timings of the grid through two real worker processes.

    Cold publishes a manifest and lets ``workers`` spawned ``repro worker``
    subprocesses claim and simulate every cell; warm re-runs the same spec
    against the now-full store — the coordinator answers everything itself
    and spawns nothing.  Per-worker counters come from the claim files'
    bookkeeping, so the report shows how the work actually split.
    """
    from repro.cluster import ClusterCoordinator, cluster_status

    root = tempfile.mkdtemp(prefix="repro-cluster-bench-")
    label = f"cluster{workers}"
    try:
        store = ResultStore(root)
        coordinator = ClusterCoordinator(store)
        start = time.perf_counter()
        cold_sweep = coordinator.run_distributed(spec, workers=workers)
        cold_elapsed = time.perf_counter() - start
        status = cluster_status(store)
        worker_rows = [
            {
                "worker": row["worker"],
                "claimed": row["claimed"],
                "stolen": row["stolen"],
                "completed": row["completed"],
            }
            for sweep in status["sweeps"]
            for row in sweep["workers"]
        ]
        start = time.perf_counter()
        warm_sweep = coordinator.run_distributed(spec, workers=workers)
        warm_elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)
    cold = {
        "label": label,
        "seconds": round(cold_elapsed, 4),
        "cells": len(cold_sweep),
        "cells_per_second": round(len(cold_sweep) / cold_elapsed, 2)
        if cold_elapsed else None,
        "simulated_cells": cold_sweep.simulated_count,
    }
    warm = {
        "label": f"{label}_warm",
        "seconds": round(warm_elapsed, 4),
        "cells": len(warm_sweep),
        "cells_per_second": round(len(warm_sweep) / warm_elapsed, 2)
        if warm_elapsed else None,
        "cached_cells": warm_sweep.cached_count,
        "simulated_cells": warm_sweep.simulated_count,
        "worker_processes_spawned": 0,
    }
    return {
        "benchmark": f"distributed sweep via repro.cluster "
        f"({workers} spawned worker processes)",
        "worker_processes_spawned": workers,
        "runs": [cold, warm],
        "per_worker": worker_rows,
    }


def _previous_baseline(path: str) -> "dict | None":
    """Serial cold/warm numbers of the report currently at ``path``, if any."""
    try:
        with open(path) as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        return None
    runs = {run["label"]: run for run in previous.get("runs", ())}
    cold = runs.get("serial")
    warm = runs.get("serial_warm", cold)
    if cold is None:
        return None
    return {
        "serial_cold_cells_per_second": cold.get("cells_per_second"),
        "serial_warm_cells_per_second": (warm or cold).get("cells_per_second"),
    }


def _baseline_comparison(previous: "dict | None", runs: list) -> "dict | None":
    """Cold/warm speedups of this run's serial mode over the previous report."""
    if previous is None:
        return None
    by_label = {run["label"]: run for run in runs}
    cold = by_label.get("serial")
    warm = by_label.get("serial_warm", cold)
    comparison = {"previous": previous}
    previous_cold = previous.get("serial_cold_cells_per_second")
    previous_warm = previous.get("serial_warm_cells_per_second")
    if cold and previous_cold:
        comparison["serial_cold_speedup"] = round(
            cold["cells_per_second"] / previous_cold, 2
        )
    if warm and previous_warm:
        comparison["serial_warm_speedup"] = round(
            warm["cells_per_second"] / previous_warm, 2
        )
    return comparison


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per mode; the first is cold, the best of "
                             "the rest is reported as warm")
    parser.add_argument("--output", default="BENCH_sweep.json")
    parser.add_argument("--axis", action="append", default=[],
                        metavar="NAME=V1,V2,...",
                        help="extra machine-parameter sweep axis (repeatable), "
                             "e.g. --axis lanes=1,2 to benchmark a wider grid")
    parser.add_argument("--cluster-workers", type=int, default=2,
                        help="worker processes for the distributed-sweep "
                             "benchmark (default: 2)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.jobs < 2:
        parser.error("--jobs must be at least 2 (the serial mode is always timed)")

    previous = _previous_baseline(args.output)

    spec = SweepSpec.from_strings(
        programs="dyfesm,trfd",
        latencies="1,50,100",
        architectures="ref,dva",
        scale=args.scale,
        axes=tuple(args.axis),
    )

    parallel_label = f"jobs{args.jobs}"
    with Runner(jobs=1) as serial_runner, Runner(jobs=args.jobs) as parallel_runner:
        runs = _time_runners(
            {"serial": serial_runner, parallel_label: parallel_runner},
            spec,
            args.repeats,
        )
        effective_workers = {
            "serial": serial_runner.effective_jobs,
            parallel_label: parallel_runner.effective_jobs,
        }

    by_label = {run["label"]: run for run in runs}
    serial_best = by_label.get("serial_warm", by_label["serial"])
    parallel_best = by_label.get(f"{parallel_label}_warm", by_label[parallel_label])
    cpus = os.cpu_count()
    cpu_capped = effective_workers[parallel_label] < args.jobs
    workers_section = {
        "cpus": cpus,
        "requested_jobs": args.jobs,
        "effective_workers": effective_workers,
        "cluster_worker_processes": args.cluster_workers,
        "cpu_capped": cpu_capped,
        "honesty": (
            f"jobs{args.jobs} ran with {effective_workers[parallel_label]} "
            f"effective pool worker(s) on {cpus} CPU(s); "
            + (
                "parallel rows measure in-process batch mode / coordination "
                "overhead, NOT multi-core speedup"
                if cpu_capped or (cpus or 1) < 2
                else "parallel rows reflect real multi-core execution"
            )
        ),
    }
    report = {
        "benchmark": "core sweep runner (REF+DVA, 2 programs x 3 latencies)",
        "spec": {
            "programs": list(spec.programs),
            "latencies": list(spec.latencies),
            "architectures": list(spec.architectures),
            "scale": spec.scale,
            "axes": [[name, list(values)] for name, values in spec.axes],
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workers": workers_section,
        "cpus": cpus,
        "requested_jobs": args.jobs,
        "effective_workers": effective_workers,
        "repeats_per_mode": args.repeats,
        "runs": runs,
        "jobs_speedup_over_serial": round(
            serial_best["seconds"] / parallel_best["seconds"], 4
        ),
        "store": _bench_store(args.scale),
        "cluster": _bench_cluster(spec, args.cluster_workers),
    }
    comparison = _baseline_comparison(previous, runs)
    if comparison is not None:
        report["baseline_comparison"] = comparison
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    # Worker honesty comes first, before any throughput number.
    print(workers_section["honesty"])
    print(
        f"cluster{args.cluster_workers}: {args.cluster_workers} separate "
        f"worker processes coordinating through the store on {cpus} CPU(s)"
    )
    print()
    for run in runs + report["store"]["runs"] + report["cluster"]["runs"]:
        print(f"{run['label']:28s} {run['seconds']:8.4f}s  "
              f"{run['cells_per_second']} cells/s")
    print(f"jobs speedup over serial (warm best): "
          f"{report['jobs_speedup_over_serial']}x")
    print(f"store warm speedup over cold: "
          f"{report['store']['warm_speedup_over_cold']}x")
    split = ", ".join(
        f"{row['worker']}: {row['completed']}"
        for row in report["cluster"]["per_worker"]
    )
    print(f"cluster work split (cells completed): {split}")
    if comparison is not None:
        print(
            f"serial speedup over previous report: "
            f"cold {comparison.get('serial_cold_speedup', '?')}x, "
            f"warm {comparison.get('serial_warm_speedup', '?')}x"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
