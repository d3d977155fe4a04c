"""CLI surface of the cluster layer: sweep --distributed, worker, status."""

import json

import pytest

from repro.core.cli import main


class TestSweepDistributed:
    def test_distributed_requires_the_store(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--programs", "dyfesm", "--latencies", "1",
                "--distributed", "--no-store",
            ])
        assert "--no-store" in capsys.readouterr().err

    def test_distributed_sweep_runs_and_warm_rerun_simulates_zero(
        self, capsys, tmp_path, start_worker, monkeypatch
    ):
        from repro.cluster import ClusterCoordinator

        # The CLI waits for workers without a deadline; bound it here so a
        # broken worker fails the test instead of hanging it.
        run = ClusterCoordinator.run_distributed
        monkeypatch.setattr(
            ClusterCoordinator,
            "run_distributed",
            lambda self, spec, **kwargs: run(self, spec, timeout=120.0, **kwargs),
        )
        store_dir = tmp_path / "store"
        # Standing workers poll the store for manifests; the sweep publishes
        # one and waits for them.
        for name in ("w1", "w2"):
            start_worker(store_dir, "--worker-id", name)
        argv = [
            "sweep", "--programs", "dyfesm", "--latencies", "1,50",
            "--arch", "ref,dva", "--scale", "0.2",
            "--distributed", "--store-dir", str(store_dir),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep: 4 cells" in out
        assert "0 cached, 4 simulated" in out
        # Warm re-run: the coordinator answers everything from the store and
        # publishes nothing.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 cached, 0 simulated" in out

    @pytest.mark.parametrize("flag", ["--workers", "--lease"])
    def test_local_spawn_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "--programs", "dyfesm", "--latencies", "1",
                "--distributed", flag, "2",
            ])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestWorkerAndStatus:
    def test_worker_once_drains_published_manifests(self, capsys, tmp_path):
        from repro.cluster import ClusterCoordinator
        from repro.core.experiment import SweepSpec
        from repro.store import ResultStore

        store_dir = tmp_path / "store"
        spec = SweepSpec(
            programs=("dyfesm",), latencies=(1,), architectures=("ref", "dva"),
            scale=0.2,
        )
        prepared = ClusterCoordinator(ResultStore(store_dir)).prepare(spec)
        code = main([
            "worker", "--once", "--worker-id", "w-test",
            "--store-dir", str(store_dir),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "w-test" in err
        assert "completed=2" in err

        assert main(["cluster", "status", "--store-dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert prepared.sweep_id in out
        assert "[done]" in out
        assert "worker w-test" in out

    def test_cluster_status_json_payload(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert main([
            "cluster", "status", "--json", "--store-dir", str(store_dir),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweeps"] == []
        assert payload["running_sweeps"] == 0

    def test_cluster_status_without_manifests_says_so(self, capsys, tmp_path):
        assert main([
            "cluster", "status", "--store-dir", str(tmp_path / "store"),
        ]) == 0
        assert "no sweeps" in capsys.readouterr().out
