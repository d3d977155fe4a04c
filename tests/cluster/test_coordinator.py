"""Coordinator tests: prepare/wait/assemble, status, reaping, golden identity."""

import json
import os
import time

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterError,
    ClusterWorker,
    ClaimSet,
    claims_dir,
    cluster_status,
    list_sweep_ids,
    load_manifest,
    reap_cluster,
    sweep_dir,
)
from repro.core.experiment import Runner, SweepSpec
from repro.store import ResultStore


SPEC = SweepSpec(
    programs=("dyfesm", "trfd"), latencies=(1, 50), architectures=("ref", "dva"),
    scale=0.2,
)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


@pytest.fixture()
def coordinator(store):
    return ClusterCoordinator(store, poll_seconds=0.01)


class TestPrepare:
    def test_cold_prepare_publishes_every_cell(self, store, coordinator):
        prepared = coordinator.prepare(SPEC)
        assert prepared.total == len(SPEC)
        assert prepared.unfinished == len(SPEC)
        assert all(cell.result is None for cell in prepared.cells)
        manifest = load_manifest(store, prepared.sweep_id)
        assert len(manifest) == len(SPEC)

    def test_manifest_cells_are_cost_ranked(self, store, coordinator):
        prepared = coordinator.prepare(SPEC)
        costs = [cell.cost for cell in prepared.manifest.cells]
        assert costs == sorted(costs, reverse=True)

    def test_warm_prepare_publishes_nothing(self, store, coordinator, tmp_path):
        Runner(jobs=1, store=store).run(SPEC)
        prepared = coordinator.prepare(SPEC)
        assert prepared.manifest is None
        assert all(cell.result.cached for cell in prepared.cells)
        assert list_sweep_ids(store) == []

    def test_partially_warm_prepare_publishes_only_misses(
        self, store, coordinator
    ):
        warm = SweepSpec(
            programs=("dyfesm",), latencies=(1,), architectures=("ref", "dva"),
            scale=0.2,
        )
        Runner(jobs=1, store=store).run(warm)
        prepared = coordinator.prepare(SPEC)
        assert prepared.unfinished == len(SPEC) - 2
        hits = [cell for cell in prepared.cells if cell.result is not None]
        assert [(cell.program, cell.latency) for cell in hits] == [("DYFESM", 1)] * 2

    def test_uncacheable_cells_are_rejected(self, store, coordinator):
        from repro.core.registry import (
            register_architecture,
            unregister_architecture,
        )

        class Opaque:
            name = "opaque-test-arch"
            description = "no spec, no cell key"

            def simulate(self, trace, config):  # pragma: no cover
                raise NotImplementedError

        try:
            register_architecture(Opaque())
            with pytest.raises(ClusterError, match="not cacheable"):
                coordinator.prepare(
                    SweepSpec(
                        programs=("dyfesm",), latencies=(1,),
                        architectures=("opaque-test-arch",), scale=0.2,
                    )
                )
        finally:
            unregister_architecture("opaque-test-arch")

    def test_unknown_program_fails_fast(self, coordinator):
        from repro.common.errors import ReproError

        with pytest.raises(ReproError):
            coordinator.prepare(SweepSpec(programs=("nope",), latencies=(1,)))


class TestWaitAndAssemble:
    def test_wait_returns_once_a_worker_drains_the_manifest(
        self, store, coordinator
    ):
        prepared = coordinator.prepare(SPEC)
        ClusterWorker(store, worker_id="w1", lease_seconds=5.0).run_sweep(
            prepared.sweep_id
        )
        events = []
        coordinator.wait(prepared, timeout=5.0, progress=events.append)
        assert len(events) == prepared.total
        assert events[-1].done == prepared.total

    def test_wait_times_out_with_no_workers(self, coordinator):
        prepared = coordinator.prepare(SPEC)
        with pytest.raises(ClusterError, match="timed out"):
            coordinator.wait(prepared, timeout=0.05)

    def test_wait_raises_when_every_remaining_cell_failed(
        self, store, coordinator
    ):
        prepared = coordinator.prepare(SPEC)
        from repro.cluster import workers_dir

        directory = workers_dir(store, prepared.sweep_id)
        directory.mkdir(parents=True)
        (directory / "w1.json").write_text(json.dumps({
            "worker": "w1",
            "errors": [
                {"key": cell.key, "error": "SimulationError: boom"}
                for cell in prepared.manifest.cells
            ],
        }))
        with pytest.raises(ClusterError, match="failed on every worker"):
            coordinator.wait(prepared, timeout=5.0)

    def test_assemble_is_golden_identical_to_a_serial_run(
        self, store, coordinator, tmp_path
    ):
        prepared = coordinator.prepare(SPEC)
        ClusterWorker(store, worker_id="w1", lease_seconds=5.0).run_sweep(
            prepared.sweep_id
        )
        distributed = coordinator.assemble(prepared)
        serial = Runner(jobs=1, store=ResultStore(tmp_path / "other")).run(SPEC)
        assert distributed == serial
        assert distributed.simulated_count == len(SPEC)
        assert distributed.cached_count == 0

    def test_assemble_raises_on_a_vanished_cell(self, store, coordinator):
        prepared = coordinator.prepare(SPEC)
        with pytest.raises(ClusterError, match="vanished"):
            coordinator.assemble(prepared)


class TestRunDistributed:
    def test_two_standing_workers_finish_the_sweep(
        self, store, coordinator, start_worker, tmp_path
    ):
        prepared = coordinator.prepare(SPEC)
        workers = [
            start_worker(store.root, "--sweep", prepared.sweep_id, "--worker-id", name)
            for name in ("w1", "w2")
        ]
        events = []
        coordinator.wait(prepared, timeout=120.0, progress=events.append)
        result = coordinator.assemble(prepared)
        assert [worker.wait(timeout=30.0) for worker in workers] == [0, 0]
        serial = Runner(jobs=1, store=ResultStore(tmp_path / "other")).run(SPEC)
        assert result == serial
        assert len(events) == len(SPEC)
        statuses = cluster_status(store)["sweeps"][0]["workers"]
        assert sum(w["completed"] for w in statuses) == len(SPEC)
        # Warm: nothing published, nothing simulated.
        warm = coordinator.run_distributed(SPEC)
        assert (warm.cached_count, warm.simulated_count) == (len(SPEC), 0)
        assert list_sweep_ids(store) == [prepared.sweep_id]
        # Fresh coordination state survives gc.
        report = store.gc()
        assert (report["cluster_sweeps_reaped"], report["cluster_claims_reaped"]) == (0, 0)

    def test_warm_run_publishes_nothing_and_simulates_zero(self, store, coordinator):
        Runner(jobs=1, store=store).run(SPEC)
        result = coordinator.run_distributed(SPEC, timeout=0.2)
        assert result.cached_count == len(SPEC)
        assert result.simulated_count == 0
        assert list_sweep_ids(store) == []

    def test_publishes_and_times_out_without_a_fleet(self, store, coordinator):
        # With no worker serving the store, the wait must hit the timeout
        # and leave the manifest behind for workers to discover.
        with pytest.raises(ClusterError, match="timed out"):
            coordinator.run_distributed(SPEC, timeout=0.2)
        assert list_sweep_ids(store)

    def test_progress_matches_a_serial_run_on_a_half_warm_store(self, tmp_path):
        half = SweepSpec(
            programs=("dyfesm", "trfd"), latencies=(1,), architectures=("ref", "dva"),
            scale=0.2,
        )
        serial_store = ResultStore(tmp_path / "serial")
        cluster_store = ResultStore(tmp_path / "cluster")
        for half_warm in (serial_store, cluster_store):
            Runner(jobs=1, store=half_warm).run(half)

        serial_events = []
        Runner(jobs=1, store=serial_store).run(SPEC, progress=serial_events.append)
        coordinator = ClusterCoordinator(cluster_store, poll_seconds=0.01)
        prepared = coordinator.prepare(SPEC)
        ClusterWorker(cluster_store, worker_id="w1").run_sweep(prepared.sweep_id)
        cluster_events = []
        coordinator.wait(prepared, timeout=5.0, progress=cluster_events.append)

        def final(events):
            last = events[-1]
            return (last.done, last.total, last.cached, last.simulated)

        assert final(serial_events) == final(cluster_events) == (8, 8, 4, 4)
        assert len(serial_events) == len(cluster_events) == 8


class TestStatus:
    def test_status_reports_progress_claims_and_workers(self, store, coordinator):
        prepared = coordinator.prepare(SPEC)
        worker = ClusterWorker(store, worker_id="w1", lease_seconds=5.0)
        worker.run_sweep(prepared.sweep_id)
        status = cluster_status(store)
        assert status["running_sweeps"] == 0
        sweep = status["sweeps"][0]
        assert sweep["sweep"] == prepared.sweep_id
        assert sweep["state"] == "done"
        assert (sweep["done"], sweep["remaining"]) == (len(SPEC), 0)
        assert sweep["workers"][0]["worker"] == "w1"
        assert sweep["workers"][0]["completed"] == len(SPEC)
        assert sweep["workers"][0]["live"] is True

    def test_status_counts_active_and_expired_claims(self, store, coordinator):
        prepared = coordinator.prepare(SPEC)
        claims = ClaimSet(
            claims_dir(store, prepared.sweep_id), "w1", lease_seconds=0.05
        )
        claims.try_claim(prepared.manifest.cells[0].key)
        fresh = ClaimSet(
            claims_dir(store, prepared.sweep_id), "w2", lease_seconds=60.0
        )
        fresh.try_claim(prepared.manifest.cells[1].key)
        time.sleep(0.1)
        sweep = cluster_status(store)["sweeps"][0]
        assert sweep["state"] == "running"
        assert sweep["claims_active"] == 1
        assert sweep["claims_expired"] == 1

    def test_empty_store_has_no_sweeps(self, store):
        status = cluster_status(store)
        assert status["sweeps"] == []
        assert status["running_sweeps"] == 0


class TestReaping:
    def _age(self, path, seconds):
        old = time.time() - seconds
        for child in [path, *path.rglob("*")]:
            os.utime(child, (old, old))

    def test_drained_old_sweep_dirs_are_reaped(self, store, coordinator):
        prepared = coordinator.prepare(SPEC)
        ClusterWorker(store, worker_id="w1", lease_seconds=5.0).run_sweep(
            prepared.sweep_id
        )
        self._age(sweep_dir(store, prepared.sweep_id), 7200)
        report = reap_cluster(store, dry_run=True)
        assert report["sweeps_reaped"] == 1
        assert sweep_dir(store, prepared.sweep_id).is_dir()  # dry run
        report = reap_cluster(store)
        assert report["sweeps_reaped"] == 1
        assert not sweep_dir(store, prepared.sweep_id).exists()

    def test_running_sweeps_and_fresh_claims_are_left_alone(
        self, store, coordinator
    ):
        prepared = coordinator.prepare(SPEC)
        claims = ClaimSet(
            claims_dir(store, prepared.sweep_id), "w1", lease_seconds=30.0
        )
        claims.try_claim(prepared.manifest.cells[0].key)
        report = reap_cluster(store)
        assert report == {"claims_reaped": 0, "sweeps_reaped": 0}
        assert sweep_dir(store, prepared.sweep_id).is_dir()

    def test_long_expired_claims_are_reaped(self, store, coordinator):
        prepared = coordinator.prepare(SPEC)
        claims = ClaimSet(
            claims_dir(store, prepared.sweep_id), "w1", lease_seconds=1.0
        )
        claims.try_claim(prepared.manifest.cells[0].key)
        path = claims.path_for(prepared.manifest.cells[0].key)
        old = time.time() - 7200
        os.utime(path, (old, old))
        report = reap_cluster(store)
        assert report["claims_reaped"] == 1
        assert not path.exists()
        # The sweep itself is unfinished and stays.
        assert sweep_dir(store, prepared.sweep_id).is_dir()

    def test_store_gc_reports_cluster_reaping(self, store, coordinator):
        prepared = coordinator.prepare(SPEC)
        ClusterWorker(store, worker_id="w1", lease_seconds=5.0).run_sweep(
            prepared.sweep_id
        )
        self._age(sweep_dir(store, prepared.sweep_id), 7200)
        report = store.gc()
        assert report["cluster_sweeps_reaped"] == 1
        assert report["cluster_claims_reaped"] == 0
        assert not sweep_dir(store, prepared.sweep_id).exists()
