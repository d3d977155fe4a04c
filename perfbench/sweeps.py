"""The two sweep workloads: ``paper-cold`` and ``resume-warm``.

A *pass* is what one ``repro sweep`` invocation does after start-up: a fresh
serial :class:`~repro.core.experiment.Runner` (so a fresh trace cache) runs
the whole grid against a store.  ``paper-cold`` gets an empty store every
pass; ``resume-warm`` answers the whole cell universe from a store filled
once, untimed, before the first pass.

A pooled copy of ``paper-cold`` is deliberately absent: on the two-CPU
reference host its cells/s spread 0.19 across five seeds (interquartile
range over median) against 0.04 serial, so the pool's dispatch is measured
on ``serve-mixed``, whose ledger traces the pool workers.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import List, Optional

from perfbench import grids, ledger, tracer
from perfbench.host import (
    Context,
    Outcome,
    cpu_affinity,
    environment,
    median,
    percentile,
    probe_setup,
    tree_peak_rss_mb,
)


class Sweep:
    """One workload's grid, its correctness table and its pass loop."""

    def __init__(self, name: str, ctx: Context) -> None:
        self.ctx = ctx
        if name == "paper-cold":
            self.spec = grids.paper_spec(ctx.programs)
            self.table = grids.load_golden()
            self.warm_store = None
        else:
            self.spec = grids.universe_spec(ctx.programs)
            self.table = grids.load_expected()
            self.warm_store = self._fill()

    def _fill(self):
        """Benchmark-only preparation: simulate the grid once into a store."""
        from repro.core.experiment import Runner

        store = self.ctx.fresh_dir("warm-store-")
        with Runner(jobs=len(cpu_affinity()), store=store) as runner:
            runner.run(self.spec)
        return store

    def one_pass(self, latencies: Optional[List[float]] = None):
        """Run the grid once; returns (wall seconds, results, peak RSS MiB, errors)."""
        from repro.core.experiment import Runner

        store = self.warm_store or self.ctx.fresh_dir("cold-store-")
        progress = None
        started = time.perf_counter()
        if latencies is not None:

            def progress(_event) -> None:
                latencies.append((time.perf_counter() - started) * 1e3)

        sweep = Runner(jobs=1, store=store).run(self.spec, progress=progress)
        wall = time.perf_counter() - started
        rss = tree_peak_rss_mb(os.getpid())
        if self.warm_store is None:
            shutil.rmtree(store)
        errors = grids.mismatches(sweep, self.table)
        warm = self.warm_store is not None
        errors += [
            f"{result.program}/{result.latency}/{result.architecture}: "
            f"cached={result.cached} on a {'warm' if warm else 'cold'} pass"
            for result in sweep
            if result.cached != warm
        ]
        return wall, sweep, rss, errors


def _passes_until(ctx: Context, seconds: float, run_pass) -> None:
    """Call ``run_pass`` until ``seconds`` have gone by and the minimum is met."""
    started = time.perf_counter()
    done = 0
    while done < ctx.min_passes or time.perf_counter() - started < seconds:
        run_pass()
        done += 1


def measure(name: str, ctx: Context) -> Outcome:
    """The untraced run: end-to-end metrics only."""
    setups = [probe_setup(ctx.work_dir) for _ in range(ctx.setup_probes)]
    sweep = Sweep(name, ctx)
    walls: List[float] = []
    p50s: List[float] = []
    p90s: List[float] = []
    rss: List[float] = []
    outcome = Outcome(metrics={}, attempted=0, failed=0)

    def run_pass() -> None:
        latencies: List[float] = []
        wall, results, peak, errors = sweep.one_pass(latencies)
        walls.append(wall)
        p50s.append(percentile(latencies, 50))
        p90s.append(percentile(latencies, 90))
        rss.append(peak)
        outcome.attempted += len(results)
        outcome.failed += len(errors)
        outcome.errors += errors

    _passes_until(ctx, ctx.seconds, run_pass)
    cells = len(sweep.spec)
    outcome.metrics = {
        "setup_s": median([probe["setup_s"] for probe in setups]),
        "cells_per_s": median([cells / wall for wall in walls]),
        "cell_p50_ms": median(p50s),
        "cell_p90_ms": median(p90s),
        "peak_rss_mb": max(rss),
    }
    outcome.info = {
        "passes": len(walls),
        "cells_per_pass": cells,
        **environment(1, 1),
    }
    return outcome


def trace(name: str, ctx: Context) -> Outcome:
    """The traced run: the per-layer ledger of one workload.

    Untraced and traced passes alternate (the tracer switched off and on),
    so the ratio of their median walls is the tracing overhead and not a
    drift of the host between two halves of the run.
    """
    setups = [probe_setup(ctx.work_dir) for _ in range(ctx.setup_probes)]
    sweep = Sweep(name, ctx)
    active = tracer.install()
    untraced: List[float] = []
    walls: List[float] = []
    passes = []
    spans: List[tracer.Span] = []
    errors: List[str] = []
    attempted = 0
    results = []

    def run_pass(sweep: Sweep, traced: bool) -> None:
        nonlocal attempted, results
        active.enabled = traced
        wall, results, _rss, bad = sweep.one_pass()
        attempted += len(results)
        errors.extend(bad)
        if traced:
            spans[:] = active.drain()
            passes.append(tracer.layer_totals(spans))
            walls.append(wall)
        else:
            untraced.append(wall)

    def run_pair() -> None:
        run_pass(sweep, False)
        run_pass(sweep, True)

    _passes_until(ctx, ctx.seconds, run_pair)
    if ctx.spans_path is not None:
        tracer.write_spans(spans, ctx.spans_path)
    metrics = ledger.zero_metrics()
    metrics.update(ledger.layer_metrics(passes))
    metrics.update(ledger.sim_counters([result.detail for result in results]))
    metrics["startup.import_s"] = median([probe["import_s"] for probe in setups])
    metrics["tracing.overhead_ratio"] = median(walls) / median(untraced)
    metrics["pool.effective_workers"] = 1
    table = ledger.format_table(passes, walls, f"{name} layer ledger")
    table.append(
        f"tracing overhead {metrics['tracing.overhead_ratio']:.3f}x "
        f"(traced {median(walls):.4f} s / untraced {median(untraced):.4f} s per pass)"
    )
    info = {
        "untraced_passes": len(untraced),
        "traced_passes": len(walls),
        **environment(1, 1),
    }
    return Outcome(metrics, attempted, len(errors), info, errors, table)
