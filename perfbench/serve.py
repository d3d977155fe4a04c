"""The ``serve-mixed`` workload: ``repro serve`` under a seeded closed loop.

Each *epoch* launches a fresh server (``repro serve --jobs <cpus>`` on an
empty store) and drives one seeded request stream over the cell universe U
through two keep-alive connections, each sending its next request only when
the previous answer is back.  Two fifths of the stream are first requests
for a cell (simulated, written, index-merged); three fifths repeat a cell
already requested, answered from the store or by joining the in-flight
simulation.  U holds 216 cells, so one epoch is 539 requests (the stream
ends with the last first request).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import grids, ledger, tracer
from perfbench.host import (
    ROOT,
    Context,
    Outcome,
    child_env,
    children,
    cpu_affinity,
    environment,
    median,
    percentile,
    probe_setup,
    tree_peak_rss_mb,
)

CLIENTS = 2
#: Two of every five requests are first requests, at fixed positions, so a
#: seed changes which cells are asked for and repeated, never how many of
#: them the stream has answered by any point.
FIRSTS, PERIOD = 2, 5
#: A repeat picks among the most recent first requests half the time, so
#: some repeats land while their cell is still being simulated (a join).
RECENT = 8

_ADDRESS = re.compile(r"serving on http://([\d.]+):(\d+)")


def request_stream(
    cells: Sequence[grids.Cell], seed: int, epoch: int
) -> List[Tuple[grids.Cell, bool]]:
    """The seeded stream of one epoch: ``(cell, is_first_request)`` pairs.

    Every cell is requested first exactly once, in a seed-drawn order; the
    other three of every five requests repeat a seed-drawn earlier cell.
    """
    rng = random.Random(f"serve/{seed}/{epoch}")
    order = list(cells)
    rng.shuffle(order)
    stream: List[Tuple[grids.Cell, bool]] = []
    requested: List[grids.Cell] = []
    position = 0
    while len(requested) < len(order):
        if (position * FIRSTS) % PERIOD < FIRSTS:
            requested.append(order[len(requested)])
            stream.append((requested[-1], True))
        else:
            choices = requested[-RECENT:] if rng.random() < 0.5 else requested
            stream.append((rng.choice(choices), False))
        position += 1
    return stream


def request_body(cell: grids.Cell) -> bytes:
    program, latency, label = cell
    return json.dumps({"program": program, "arch": label, "latency": latency}).encode()


class Server:
    """One ``repro serve`` subprocess on an ephemeral port with its own store."""

    def __init__(self, ctx: Context, span_dir: Optional[Path] = None) -> None:
        jobs = str(len(cpu_affinity()))
        args = ["--port", "0", "--store-dir", str(ctx.fresh_dir("serve-store-")), "--jobs", jobs]
        if span_dir is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            script = Path(__file__).resolve().parent / "traced_serve.py"
            command = [sys.executable, str(script), str(span_dir), *args]
        env = child_env(ctx.work_dir)
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT, text=True
        )
        line = self.process.stdout.readline()
        self.launch_s = time.perf_counter() - started
        # Keep reading whatever else the server prints, so a full pipe can
        # never stall it.
        self._drain = threading.Thread(target=self.process.stdout.read)
        self._drain.start()
        match = _ADDRESS.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not announce an address: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stats(self) -> Dict[str, object]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("GET", "/v1/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                for worker in children(self.process.pid):
                    os.kill(worker, signal.SIGKILL)
                self.process.kill()
                self.process.wait()
        self._drain.join()
        self.process.stdout.close()


def drive(server: Server, stream, expected: Dict[str, int]) -> Dict[str, object]:
    """Send the stream over ``CLIENTS`` closed-loop connections; check answers.

    Per request it keeps the client-side latency; per distinct cell, the time
    from the start of the epoch until the cell's first answer arrived (its
    time-to-result, as a sweep's progress callback would see it).
    """
    bodies = [request_body(cell) for cell, _first in stream]
    records: List[Optional[Tuple[float, float, Optional[dict]]]] = [None] * len(stream)
    errors: List[str] = []
    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    epoch_start = time.perf_counter()

    def client() -> None:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=120)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                started = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/v1/run", bodies[index], {"Content-Type": "application/json"}
                    )
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    status = response.status
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    connection.close()
                    payload, status = None, f"{type(exc).__name__}: {exc}"
                finished = time.perf_counter()
                records[index] = (
                    (finished - started) * 1e3,
                    (finished - epoch_start) * 1e3,
                    payload if status == 200 else None,
                )
                if status != 200:
                    with lock:
                        errors.append(f"request {index}: status {status}")
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - epoch_start

    hits: List[float] = []
    misses: List[float] = []
    first_answer: Dict[str, float] = {}
    counts = {"hits": 0, "joins": 0, "misses": 0}
    details: Dict[str, dict] = {}
    for index, ((cell, first), record) in enumerate(zip(stream, records)):
        if record is None:
            errors.append(f"request {index}: never answered")
            continue
        latency_ms, done_ms, payload = record
        (misses if first else hits).append(latency_ms)
        if payload is None:
            continue
        key = grids.cell_id(*cell)
        if payload["total_cycles"] != expected.get(key) or payload["architecture"] != cell[2]:
            errors.append(
                f"{key}: got {payload['architecture']} {payload['total_cycles']}, "
                f"expected {expected.get(key)}"
            )
        counts["misses" if first else "hits" if payload["cached"] else "joins"] += 1
        details.setdefault(key, payload["summary"])
        first_answer[key] = min(done_ms, first_answer.get(key, done_ms))
    return {
        "wall": wall,
        "hits": hits,
        "misses": misses,
        "time_to_result": list(first_answer.values()),
        "counts": counts,
        "details": list(details.values()),
        "errors": errors,
    }


def _epoch(ctx: Context, epoch: int, cells, expected, span_dir=None):
    """One fresh server, one stream; returns the drive record plus server-side facts."""
    server = Server(ctx, span_dir)
    try:
        record = drive(server, request_stream(cells, ctx.seed, epoch), expected)
        stats = server.stats()["service"]["scheduler"]
        record["rss"] = tree_peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    record["launch_s"] = server.launch_s
    record["scheduler"] = stats
    if stats["simulated"] != len(cells):
        record["errors"].append(
            f"server simulated {stats['simulated']} cells, expected each of {len(cells)} once"
        )
    return record


def _inputs(ctx: Context):
    cells = grids.universe_cells(ctx.programs)
    return cells, grids.load_expected()


def measure(ctx: Context) -> Outcome:
    """The untraced run: whole epochs until ``ctx.seconds`` of driving."""
    cells, expected = _inputs(ctx)
    epochs = []
    started = time.perf_counter()
    while not epochs or time.perf_counter() - started < ctx.seconds:
        epochs.append(_epoch(ctx, len(epochs), cells, expected))
    launches = [epoch["launch_s"] for epoch in epochs]
    while len(launches) < ctx.setup_probes:
        server = Server(ctx)
        server.stop()
        launches.append(server.launch_s)
    requests = sum(len(e["hits"]) + len(e["misses"]) for e in epochs)
    errors = [error for e in epochs for error in e["errors"]]
    jobs = len(cpu_affinity())
    return Outcome(
        metrics={
            "setup_s": median(launches),
            "cells_per_s": median(
                [(len(e["hits"]) + len(e["misses"])) / e["wall"] for e in epochs]
            ),
            "cell_p50_ms": median([percentile(e["time_to_result"], 50) for e in epochs]),
            "cell_p90_ms": median([percentile(e["time_to_result"], 90) for e in epochs]),
            "peak_rss_mb": median([e["rss"] for e in epochs]),
        },
        attempted=requests,
        failed=len(errors),
        info={
            "epochs": len(epochs),
            "clients": CLIENTS,
            "per_epoch": [{**e["counts"], "wall_s": round(e["wall"], 3)} for e in epochs],
            "scheduler": [e["scheduler"] for e in epochs],
            **environment(jobs, jobs),
        },
        errors=errors,
    )


def trace(ctx: Context) -> Outcome:
    """The traced run: one untraced epoch, then the same stream traced.

    The untraced epoch gives the hit/miss latency split and the scheduler
    counters; the traced one gives the server's layer ledger (its pool
    workers included).  Their walls give the tracing overhead.
    """
    cells, expected = _inputs(ctx)
    plain = _epoch(ctx, 0, cells, expected)
    span_dir = ctx.fresh_dir("spans-")
    traced = _epoch(ctx, 0, cells, expected, span_dir)
    spans = tracer.load_span_files(span_dir)
    if ctx.spans_path is not None:
        tracer.write_spans(spans, ctx.spans_path)
    totals = tracer.layer_totals(spans)
    get_ms = 1e3 * median(
        [s[tracer.END] - s[tracer.START] for s in spans if s[tracer.NAME] == "store.get"]
    )

    metrics = ledger.zero_metrics()
    metrics.update(ledger.layer_metrics([totals]))
    metrics.update(ledger.sim_counters(plain["details"]))
    scheduler = plain["scheduler"]
    requested = max(1, scheduler["cells_requested"])
    hit_p50 = percentile(plain["hits"], 50)
    metrics.update(
        {
            "startup.import_s": median(
                [probe_setup(ctx.work_dir)["import_s"] for _ in range(ctx.setup_probes)]
            ),
            "tracing.overhead_ratio": traced["wall"] / plain["wall"],
            "pool.effective_workers": len(cpu_affinity()),
            "scheduler.dedup_ratio": (scheduler["store_hits"] + scheduler["inflight_joins"])
            / requested,
            "scheduler.cells_per_batch": scheduler["simulated"]
            / max(1, scheduler["batches_dispatched"]),
            "service.hits": plain["counts"]["hits"],
            "service.joins": plain["counts"]["joins"],
            "service.misses": plain["counts"]["misses"],
            "service.hit_p50_ms": hit_p50,
            "service.hit_p90_ms": percentile(plain["hits"], 90),
            "service.miss_p50_ms": percentile(plain["misses"], 50),
            "service.miss_p90_ms": percentile(plain["misses"], 90),
            "service.hit_overhead_ms": hit_p50 - get_ms,
        }
    )
    table = ledger.format_table([totals], [traced["wall"]], "serve-mixed server ledger")
    table.append(
        f"tracing overhead {metrics['tracing.overhead_ratio']:.3f}x "
        f"(traced epoch {traced['wall']:.3f} s / untraced {plain['wall']:.3f} s); "
        f"median store.get {get_ms:.3f} ms"
    )
    errors = plain["errors"] + traced["errors"]
    jobs = len(cpu_affinity())
    return Outcome(
        metrics,
        attempted=2 * len(plain["hits"] + plain["misses"]),
        failed=len(errors),
        info={
            "clients": CLIENTS,
            "counts": plain["counts"],
            "scheduler": scheduler,
            **environment(jobs, jobs),
        },
        errors=errors,
        table=table,
    )
