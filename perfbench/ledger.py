"""The per-layer ledger: span totals per pass turned into named layer metrics.

Every workload's traced run reports every metric below.  A layer the
workload never enters reads 0 — on ``resume-warm`` nothing is simulated, so
``refarch.run_s`` is 0 by design, and a hot-loop change must leave it so.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from perfbench.host import median, spread

#: (metric, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("cell_p50_ms", "ms"),
    ("cell_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: Span names of the timed layers; each reports ``<name>_s``, its self time per pass.
TIMED_LAYERS: Tuple[str, ...] = (
    "trace.build",
    "refarch.run",
    "dva.run",
    "result.package",
    "result.from_json",
    "store.cell_key",
    "store.get",
    "store.put",
    "store.update_index",
    "workloads.load_program",
    "registry.simulate",
    "runner.resolve",
    "runner.cost_model",
    "runner.run_batch",
    "pool.batch",
)

#: (metric, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("startup.import_s", "s"),
    *((f"{layer}_s", "s") for layer in TIMED_LAYERS),
    ("trace.records_per_s", "1/s"),
    ("refarch.insns_per_s", "1/s"),
    ("dva.insns_per_s", "1/s"),
    ("store.get_count", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.put_count", "count"),
    ("store.index_merges_skipped", "count"),
    ("runner.unattributed_s", "s"),
    ("pool.effective_workers", "count"),
    ("tracing.overhead_ratio", "ratio"),
    ("scheduler.dedup_ratio", "ratio"),
    ("scheduler.cells_per_batch", "count"),
    ("service.hits", "count"),
    ("service.joins", "count"),
    ("service.misses", "count"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p90_ms", "ms"),
    ("service.miss_p50_ms", "ms"),
    ("service.miss_p90_ms", "ms"),
    ("service.hit_overhead_ms", "ms"),
    ("sim.total_cycles", "cycles"),
    ("sim.dva.fetch_stall_cycles", "cycles"),
    ("sim.dva.disambiguation_stalls", "count"),
    ("sim.dva.bypassed_loads", "count"),
    ("sim.memory_traffic_bytes", "bytes"),
    ("sim.scalar_cache_hit_ratio", "ratio"),
)

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)

#: The pass root: ``Runner.run`` itself; its self time is what no layer claims.
ROOT_SPAN = "runner.run"

#: Layers whose ``count`` is the work a rate divides by.
_RATES = {
    "trace.records_per_s": "trace.build",
    "refarch.insns_per_s": "refarch.run",
    "dva.insns_per_s": "dva.run",
}

LayerTotals = Mapping[str, Mapping[str, float]]


def _rate(totals: LayerTotals, layer: str) -> float:
    entry = totals.get(layer)
    if not entry or entry["self_s"] <= 0:
        return 0.0
    return entry["count"] / entry["self_s"]


def layer_metrics(passes: Sequence[LayerTotals]) -> Dict[str, float]:
    """Median over passes of each layer's per-pass self time, count and rate."""

    def per_pass(extract) -> float:
        return median([extract(totals) for totals in passes])

    def field(layer: str, key: str):
        return lambda totals: totals.get(layer, {}).get(key, 0)

    metrics: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_s"] = per_pass(field(layer, "self_s"))
    for metric, layer in _RATES.items():
        metrics[metric] = per_pass(lambda totals, layer=layer: _rate(totals, layer))
    metrics["store.get_count"] = per_pass(field("store.get", "calls"))
    metrics["store.hit_ratio"] = per_pass(
        lambda totals: totals.get("store.get", {}).get("count", 0)
        / max(1, totals.get("store.get", {}).get("calls", 0))
    )
    metrics["store.put_count"] = per_pass(field("store.put", "calls"))
    metrics["store.index_merges_skipped"] = per_pass(field("store.update_index", "count"))
    metrics["runner.unattributed_s"] = per_pass(field(ROOT_SPAN, "self_s"))
    return metrics


def zero_metrics() -> Dict[str, float]:
    return {name: 0.0 for name, _unit in PER_LAYER}


def format_table(
    passes: Sequence[LayerTotals], walls: Sequence[float], title: str
) -> List[str]:
    """The human-readable layer table: self seconds per pass, share, spread."""
    names = sorted({name for totals in passes for name in totals})
    wall = median(walls)
    lines = [
        f"{title}: {len(passes)} traced pass(es), median wall {wall:.4f} s",
        f"{'layer':<24}{'self_s':>10}{'min_s':>10}{'spread':>8}{'share':>8}"
        f"{'calls':>8}{'work':>10}",
    ]
    rows = []
    for name in names:
        selfs = [totals.get(name, {}).get("self_s", 0.0) for totals in passes]
        calls = median([totals.get(name, {}).get("calls", 0) for totals in passes])
        work = median([totals.get(name, {}).get("count", 0) for totals in passes])
        label = "runner.unattributed" if name == ROOT_SPAN else name
        rows.append((median(selfs), label, min(selfs), spread(selfs), calls, work))
    for self_s, label, low, spread_, calls, work in sorted(rows, reverse=True):
        share = self_s / wall if wall else 0.0
        lines.append(
            f"{label:<24}{self_s:>10.4f}{low:>10.4f}{spread_:>8.3f}{share:>8.1%}"
            f"{calls:>8.0f}{work:>10.0f}"
        )
    return lines


def sim_counters(details: Sequence[Mapping[str, object]]) -> Dict[str, float]:
    """Simulated-time counters summed over distinct cells (exact, not host time)."""

    def total(key: str) -> int:
        return sum(int(detail.get(key, 0)) for detail in details)  # type: ignore[arg-type]

    hits, misses = total("scalar_cache_hits"), total("scalar_cache_misses")
    return {
        "sim.total_cycles": total("total_cycles"),
        "sim.dva.fetch_stall_cycles": total("fetch_stall_cycles"),
        "sim.dva.disambiguation_stalls": total("disambiguation_stalls"),
        "sim.dva.bypassed_loads": total("bypassed_loads"),
        "sim.memory_traffic_bytes": total("memory_traffic_bytes"),
        "sim.scalar_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
