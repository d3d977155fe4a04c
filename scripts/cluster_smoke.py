#!/usr/bin/env python
"""Smoke-test the distributed sweep layer end to end (run in CI).

On an ephemeral store directory:

1. a coordinator publishes the manifest for a 12-cell sweep, then **two**
   ``repro worker --sweep <id>`` subprocesses are started the way a user
   would start them; they claim cells through atomic lease files, simulate
   them, and write results through the store;
2. the assembled :class:`~repro.core.experiment.SweepResult` covers every
   grid cell and is numerically identical to a serial in-process run;
3. the workers completed exactly the full grid between them, with no
   failures (how the cells split between them is up to timing);
4. the warm re-run of the same spec publishes nothing and simulates zero
   cells — everything is answered from the store;
5. ``repro cache gc`` leaves the fresh sweep's coordination state alone.

Exits non-zero (with the failing detail on stderr) on any violation, so a
CI step is just ``python scripts/cluster_smoke.py``.
"""

import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, SRC)

from repro import ResultStore, Runner, SweepSpec  # noqa: E402
from repro.cluster import ClusterCoordinator, cluster_status  # noqa: E402

SPEC = SweepSpec(
    programs=("dyfesm", "trfd"),
    latencies=(1, 50, 100),
    architectures=("ref", "dva"),
    scale=1.0,
)
WORKERS = 2


def check(condition, what, context=None):
    if not condition:
        raise SystemExit(
            f"FAIL: {what}\n  context: {json.dumps(context, indent=2, default=str)}"
        )
    print(f"ok: {what}")


def start_worker(store_root, sweep_id):
    """``python -m repro worker --store-dir ROOT --sweep ID``, as a user runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--store-dir", str(store_root),
         "--sweep", sweep_id],
        env=env,
    )


def main():
    with tempfile.TemporaryDirectory(prefix="repro-cluster-smoke-") as root:
        store = ResultStore(root)
        coordinator = ClusterCoordinator(store)

        # 1-2: cold distributed run, compared cell-for-cell against serial.
        prepared = coordinator.prepare(SPEC)
        workers = [start_worker(root, prepared.sweep_id) for _ in range(WORKERS)]
        try:
            coordinator.wait(prepared, timeout=600.0)
            codes = [worker.wait(timeout=60.0) for worker in workers]
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                    worker.wait()
        result = coordinator.assemble(prepared)
        check(codes == [0] * WORKERS, "both workers exited cleanly", codes)
        check(len(result) == len(SPEC), f"all {len(SPEC)} grid cells assembled")
        check(
            result.simulated_count == len(SPEC) and result.cached_count == 0,
            "cold run simulated every cell",
            {"simulated": result.simulated_count, "cached": result.cached_count},
        )
        with tempfile.TemporaryDirectory(prefix="repro-serial-") as serial_root:
            serial = Runner(jobs=1, store=ResultStore(serial_root)).run(SPEC)
        check(
            result == serial,
            "distributed result is identical to a serial run",
            {
                "distributed": [r.total_cycles for r in result],
                "serial": [r.total_cycles for r in serial],
            },
        )

        # 3: the workers drained the manifest between them.
        status = cluster_status(store)
        rows = [row for sweep in status["sweeps"] for row in sweep["workers"]]
        check(len(rows) == WORKERS, f"{WORKERS} workers reported status", status)
        check(
            sum(row["completed"] for row in rows) == len(SPEC),
            "workers completed exactly the full grid between them",
            status,
        )
        check(
            all(row["failed"] == 0 for row in rows),
            "no worker reported failures",
            status,
        )

        # 4: warm re-run — the store answers everything, nothing is published.
        warm = coordinator.run_distributed(SPEC, timeout=5.0)
        check(
            warm.simulated_count == 0 and warm.cached_count == len(SPEC),
            "warm re-run simulated zero cells",
            {"simulated": warm.simulated_count, "cached": warm.cached_count},
        )
        after = cluster_status(store)
        check(
            len(after["sweeps"]) == len(status["sweeps"]),
            "warm re-run published no new manifest",
            after,
        )

        # 5: gc leaves fresh (recently-touched) coordination state alone.
        report = store.gc()
        check(
            report["cluster_sweeps_reaped"] == 0
            and report["cluster_claims_reaped"] == 0,
            "cache gc left the fresh sweep's cluster state alone",
            report,
        )

    print("cluster smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
