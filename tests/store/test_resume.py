"""Integration tests: incremental, resumable sweeps through the Runner.

These cover the acceptance contract of the store: a warm identical sweep
simulates zero cells, a sweep killed mid-run resumes with only its
unfinished cells, and cached results are indistinguishable (beyond
provenance) from freshly simulated ones.
"""

import pytest

from repro.core import Runner, SweepSpec, run_sweep
from repro.core.experiment import plan_sweep
from repro.core.registry import SpecArchitecture
from repro.store import ResultStore

SPEC = SweepSpec(
    programs=("dyfesm", "trfd"),
    latencies=(1, 50),
    architectures=("ref", "dva"),
    scale=0.2,
)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


@pytest.fixture()
def simulated(monkeypatch):
    """Count (and optionally sabotage) real simulations, bypassing the store."""
    calls = []
    original = SpecArchitecture.simulate

    def counting(self, trace, config):
        if len(calls) in counting.explode_at:
            raise RuntimeError("simulated crash")
        calls.append((trace.name, config.latency, self.name))
        return original(self, trace, config)

    counting.explode_at = frozenset()
    monkeypatch.setattr(SpecArchitecture, "simulate", counting)
    return calls, counting


class TestWarmSweeps:
    def test_identical_warm_rerun_simulates_nothing(self, store, simulated):
        calls, _ = simulated
        cold = run_sweep(SPEC, store=store)
        assert cold.cached_count == 0 and cold.simulated_count == 8
        assert len(calls) == 8

        warm = run_sweep(SPEC, store=store)
        assert warm.cached_count == 8 and warm.simulated_count == 0
        assert len(calls) == 8  # not a single additional simulation
        assert warm.results == cold.results
        assert all(result.cached and result.store_key for result in warm)

    def test_warm_rerun_builds_no_traces(self, store):
        run_sweep(SPEC, store=store)
        runner = Runner(store=store)
        runner.run(SPEC)
        assert len(runner.trace_cache) == 0

    def test_results_keep_grid_order_with_mixed_hits(self, store):
        subset = SweepSpec(
            programs=("trfd",), latencies=(50,), architectures=("dva",), scale=0.2
        )
        run_sweep(subset, store=store)
        sweep = run_sweep(SPEC, store=store)
        assert sweep.cached_count == 1
        assert [r.cell_key for r in sweep] == [
            (c.program, c.latency, c.simulator.name) for c in plan_sweep(SPEC, None)
        ]
        assert sweep.get("trfd", 50, "dva").cached is True
        assert sweep.get("trfd", 1, "dva").cached is False

    def test_parallel_and_serial_share_the_store(self, store, two_cpus):
        with Runner(jobs=2, store=store) as parallel:
            cold = parallel.run(SPEC)
        warm = Runner(jobs=1, store=store).run(SPEC)
        assert cold.cached_count == 0
        assert warm.cached_count == 8
        assert warm.results == cold.results


class TestResumeAfterKill:
    def test_killed_sweep_resumes_with_only_unfinished_cells(self, store, simulated):
        calls, counting = simulated
        counting.explode_at = frozenset({5})  # die mid-sweep, 5 cells done
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_sweep(SPEC, store=store)
        assert len(calls) == 5

        counting.explode_at = frozenset()
        resumed = run_sweep(SPEC, store=store)
        # Every completed cell was persisted the moment it finished, so the
        # restart re-simulates exactly the three that never ran.
        assert len(calls) == 8
        assert resumed.cached_count == 5 and resumed.simulated_count == 3
        assert resumed.results == run_sweep(SPEC).results

    def test_resumed_sweep_equals_an_uncached_one(self, store):
        subset = SweepSpec(
            programs=("dyfesm", "trfd"),
            latencies=(1,),
            architectures=("ref", "dva"),
            scale=0.2,
        )
        run_sweep(subset, store=store)
        resumed = run_sweep(SPEC, store=store)
        fresh = run_sweep(SPEC)
        assert resumed.results == fresh.results
        # Only the store provenance (cached, store_key) may differ.
        assert [result.summary() for result in resumed.results] == [
            result.summary() for result in fresh.results
        ]


class TestStoreScoping:
    def test_no_store_means_no_files_and_no_provenance(self, tmp_path, simulated):
        calls, _ = simulated
        sweep = run_sweep(SPEC)
        assert sweep.cached_count == 0
        assert all(not r.cached and r.store_key is None for r in sweep)
        assert len(calls) == 8

    def test_fresh_results_through_a_store_carry_their_key(self, store):
        sweep = run_sweep(SPEC, store=store)
        assert all(r.store_key is not None for r in sweep)
        assert all(not r.cached for r in sweep)

    def test_different_scale_is_a_cold_sweep(self, store, simulated):
        calls, _ = simulated
        run_sweep(SPEC, store=store)
        rescaled = SweepSpec(
            programs=SPEC.programs,
            latencies=SPEC.latencies,
            architectures=SPEC.architectures,
            scale=0.4,
        )
        sweep = run_sweep(rescaled, store=store)
        assert sweep.cached_count == 0
        assert len(calls) == 16

    def test_different_machine_is_a_cold_sweep(self, store, simulated):
        calls, _ = simulated
        run_sweep(SPEC, store=store)
        chained = SweepSpec(
            programs=SPEC.programs,
            latencies=SPEC.latencies,
            architectures=("ref@chaining=on", "dva"),
            scale=SPEC.scale,
        )
        sweep = run_sweep(chained, store=store)
        # Only the ref machine changed — dva cells still hit.
        assert sweep.cached_count == 4
        assert all(r.cached == (r.architecture == "dva") for r in sweep)
        assert len(calls) == 12

    def test_runtime_registered_machines_are_cached(self, store, simulated):
        calls, _ = simulated
        from repro.core import MachineSpec, register_architecture, unregister_architecture

        register_architecture(MachineSpec(family="ref", lanes=4), name="ref-4lane")
        try:
            spec = SweepSpec(
                programs=("trfd",), latencies=(1,),
                architectures=("ref-4lane",), scale=0.2,
            )
            first = run_sweep(spec, store=store)
            second = run_sweep(spec, store=store)
        finally:
            unregister_architecture("ref-4lane")
        assert first.cached_count == 0 and second.cached_count == 1
        assert second.results == first.results
        assert len(calls) == 1

    def test_runner_accepts_a_path_in_place_of_a_store(self, tmp_path):
        root = tmp_path / "by-path"
        cold = run_sweep(SPEC, store=root)
        warm = run_sweep(SPEC, store=str(root))
        assert warm.cached_count == len(SPEC)
        assert warm.results == cold.results

    def test_store_writes_refresh_the_index(self, store):
        run_sweep(SPEC, store=store)
        import json

        lines = store.index_path.read_text().splitlines()
        assert len({json.loads(line)["key"] for line in lines}) == len(lines) == 8
