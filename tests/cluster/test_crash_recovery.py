"""Crash recovery: SIGKILL a worker holding claims; peers steal and finish.

The distributed sweep's headline guarantee is that killing any worker loses
no work: the dead worker's claim files stop being heartbeat-refreshed, their
leases expire, and a surviving worker steals the cells and simulates them.
This test makes that concrete — a real ``repro worker`` subprocess is
SIGKILLed the moment it is observed holding a claim on an unfinished cell,
then a second (in-process) worker drains what is left and the assembled
sweep is golden-identical to a serial run.
"""

import signal
import time

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    claims_dir,
)
from repro.core.experiment import Runner, SweepSpec
from repro.store import ResultStore

# Big enough that a worker cannot race through it before the kill lands
# (eight cells over two programs), small enough to drain in seconds.
SPEC = SweepSpec(
    programs=("dyfesm", "trfd"),
    latencies=(1, 100),
    architectures=("ref", "dva"),
    scale=0.2,
)

LEASE = 1.0


def test_sigkilled_workers_cells_are_stolen_and_the_sweep_completes(
    tmp_path, start_worker
):
    store = ResultStore(tmp_path / "cache")
    coordinator = ClusterCoordinator(store)
    prepared = coordinator.prepare(SPEC)
    directory = claims_dir(store, prepared.sweep_id)

    victim = start_worker(
        store.root, "--sweep", prepared.sweep_id, "--lease", str(LEASE),
        "--worker-id", "victim",
    )
    # Kill the victim the moment it holds a claim on a cell whose result is
    # not in the store yet — mid-simulation, work genuinely in flight.  The
    # fixture kills it on any early exit.
    deadline = time.monotonic() + 60.0
    claimed_key = None
    while time.monotonic() < deadline:
        for path in directory.glob("*.claim"):
            key = path.name[: -len(".claim")]
            if key not in store:
                claimed_key = key
                break
        if claimed_key is not None:
            break
        if victim.poll() is not None:
            pytest.fail("worker exited before it could be killed")
        time.sleep(0.002)
    assert claimed_key is not None, "worker never claimed a cell"
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=10.0)

    # The kill left the claim file behind, unreleased.
    assert claimed_key not in store
    orphan = directory / f"{claimed_key}.claim"
    assert orphan.exists()

    # A surviving worker steals the orphaned claim once its lease expires
    # and drains the rest of the manifest.
    rescuer = ClusterWorker(
        store, worker_id="rescuer", lease_seconds=LEASE, poll_seconds=0.05
    )
    counters = rescuer.run_sweep(prepared.sweep_id)
    assert counters["stolen"] >= 1
    assert counters["failed"] == 0
    assert claimed_key in store

    # Nothing was lost and nothing was corrupted: the assembled result is
    # golden-identical to a serial in-process run of the same spec.
    distributed = coordinator.assemble(prepared)
    serial = Runner(jobs=1, store=ResultStore(tmp_path / "other")).run(SPEC)
    assert distributed == serial


def test_killing_the_coordinator_loses_nothing(tmp_path):
    """A dead coordinator leaves a complete manifest; workers still finish,
    and a *new* coordinator can assemble from the store alone."""
    store = ResultStore(tmp_path / "cache")
    prepared = ClusterCoordinator(store).prepare(SPEC)
    # The original coordinator "dies" here: nothing of it survives but the
    # manifest it published.  A worker drains the sweep regardless.
    worker = ClusterWorker(store, worker_id="w1", lease_seconds=5.0)
    worker.run_sweep(prepared.sweep_id)

    # A fresh coordinator (fresh process in real life) re-prepares the same
    # spec: everything is warm, so it publishes nothing and assembles
    # straight from the store.
    revived = ClusterCoordinator(store)
    again = revived.prepare(SPEC)
    assert again.manifest is None
    result = revived.assemble(again)
    serial = Runner(jobs=1, store=ResultStore(tmp_path / "other")).run(SPEC)
    # Hits are cached=True for the revived coordinator; compare the physics.
    assert [r.total_cycles for r in result] == [r.total_cycles for r in serial]
    assert [r.cell_key for r in result] == [r.cell_key for r in serial]
