#!/usr/bin/env python
"""Smoke-test a live ``repro serve`` instance end to end (run in CI).

Starts the server as a subprocess on an ephemeral port with a temporary
store, then drives the whole service loop with stdlib ``urllib``:

1. ``GET /v1/healthz`` answers ok;
2. a small cold sweep runs to completion (every cell simulated);
3. the *identical* sweep re-submitted is answered entirely from the store
   (0 simulated, no batch dispatched) — the warm path, over the wire;
4. ``GET /v1/stats`` reflects both: store entries plus service counters;
5. ``POST /v1/run`` answers a cell of that sweep from the store, simulates
   a new cell once and then answers it from the store too, and rejects an
   unknown program or a negative latency with ``400``;
6. SIGINT shuts the server down cleanly (exit 0, ``shutting down``), and
   the server and every simulation worker it forked have exited.

Exits non-zero (with the failing detail on stderr) on any violation, so a
CI step is just ``python scripts/service_smoke.py``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

SWEEP = {
    "programs": "dyfesm,trfd",
    "latencies": [1, 50],
    "architectures": "ref,dva",
    "scale": 0.2,
}
CELLS = 2 * 2 * 2


def api(base, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(base + path, data=data)
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.load(response)


def api_status(base, path, body):
    """POST ``body``; returns (HTTP status, parsed JSON body), errors included."""
    try:
        return 200, api(base, path, body)
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.load(exc)


def poll(base, sweep_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while True:
        payload = api(base, f"/v1/sweeps/{sweep_id}")
        if payload["state"] != "running":
            return payload
        if time.monotonic() > deadline:
            raise SystemExit(f"sweep {sweep_id} never settled: {payload}")
        time.sleep(0.25)


def children(pid):
    """Live processes whose parent is ``pid`` (Linux ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        stat = _stat(int(entry)) if entry.isdigit() else None
        if stat is not None and stat[0] != "Z" and stat[1] == pid:
            found.append(int(entry))
    return found


def _stat(pid):
    """``(state, parent pid)`` of a process, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def alive(pid):
    found = _stat(pid)
    return found is not None and found[0] != "Z"


def check(condition, what, context):
    if not condition:
        raise SystemExit(f"FAIL: {what}\n  context: {json.dumps(context, indent=2)}")
    print(f"ok: {what}")


def main():
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as store_dir:
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--store-dir", store_dir, "--jobs", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            # The server announces its bound address on the first line.
            line = server.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if not match:
                raise SystemExit(f"no address announcement, got: {line!r}")
            base = f"http://{match.group(1)}:{match.group(2)}"
            print(f"server up at {base} (store: {store_dir})")

            health = api(base, "/v1/healthz")
            check(health["status"] == "ok", "healthz answers ok", health)

            submitted = api(base, "/v1/sweeps", SWEEP)
            cold = poll(base, submitted["sweep"])
            check(cold["state"] == "done", "cold sweep completes", cold)
            check(
                cold["done"] == CELLS and cold["simulated"] == CELLS,
                f"cold sweep simulates all {CELLS} cells",
                {k: cold[k] for k in ("done", "total", "cached", "simulated")},
            )

            resubmitted = api(base, "/v1/sweeps", SWEEP)
            warm = poll(base, resubmitted["sweep"])
            check(
                warm["state"] == "done" and warm["simulated"] == 0
                and warm["cached"] == CELLS,
                "identical re-submission is all cache hits, 0 simulated",
                {k: warm[k] for k in ("done", "total", "cached", "simulated")},
            )
            cycles = lambda payload: sorted(  # noqa: E731
                result["total_cycles"] for result in payload["results"]
            )
            check(cycles(warm) == cycles(cold), "warm results equal cold results", {})

            stats = api(base, "/v1/stats")
            scheduler = stats["service"]["scheduler"]
            check(stats["entry_count"] == CELLS, f"store holds {CELLS} entries", stats)
            check(
                scheduler["simulated"] == CELLS and scheduler["store_hits"] >= CELLS,
                "scheduler counters agree: one simulation per cell, warm from store",
                scheduler,
            )

            # One cell through /v1/run: planned and keyed like a sweep cell.
            cell = {"program": "trfd", "arch": "dva", "latency": 50, "scale": SWEEP["scale"]}
            [swept] = [
                result for result in cold["results"]
                if (result["program"], result["architecture"], result["latency"])
                == ("TRFD", "dva", 50)
            ]
            run = api(base, "/v1/run", cell)
            check(
                run["cached"] is True and run["total_cycles"] == swept["total_cycles"],
                "/v1/run answers a swept cell from the store with the sweep's cycles",
                {"run": run["total_cycles"], "sweep": swept["total_cycles"]},
            )
            new_cell = {**cell, "latency": 100}
            first = api(base, "/v1/run", new_cell)
            again = api(base, "/v1/run", new_cell)
            check(
                first["cached"] is False and again["cached"] is True
                and again["total_cycles"] == first["total_cycles"],
                "/v1/run simulates a new cell once, then answers it from the store",
                {"first": first["cached"], "again": again["cached"]},
            )
            for bad in ({**cell, "program": "nosuch"}, {**cell, "latency": -1}):
                status, payload = api_status(base, "/v1/run", bad)
                check(status == 400, f"/v1/run rejects {bad} with 400", payload)

            workers = children(server.pid)
            check(workers, "the server forked its simulation workers", {"workers": workers})
            server.send_signal(signal.SIGINT)
            code = server.wait(timeout=30)
            output = server.stdout.read()
            check(
                code == 0 and "shutting down" in output,
                "SIGINT shuts the server down cleanly",
                {"exit code": code, "output": output},
            )
            left = [pid for pid in workers if alive(pid)]
            check(not left, "every simulation worker exited with the server", {"left": left})
            print("service smoke: all checks passed")
        finally:
            if server.poll() is None:
                for pid in children(server.pid):
                    os.kill(pid, signal.SIGKILL)
                server.kill()
                server.wait()


if __name__ == "__main__":
    main()
