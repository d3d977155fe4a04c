"""Unit tests for SweepSpec, the Runner and sweep determinism."""

import asyncio
import gc
import json
import os
import signal

import pytest

from repro.common.errors import ConfigurationError, SimulationError, WorkloadError
from repro.core import Runner, SweepSpec, experiment, run_sweep
from repro.core.experiment import (
    MAX_TRACE_ROWS,
    SweepResult,
    TraceCache,
    _run_program_cells,
    estimate_cell_cost,
    plan_sweep,
    trace_rows,
)
from repro.store import ResultStore
from repro.workloads.perfect_club import load_program, program_names
from repro.workloads.program_model import ProgramModel

SPEC = SweepSpec(
    programs=("dyfesm", "trfd"),
    latencies=(1, 50),
    architectures=("ref", "dva"),
    scale=0.2,
)


class TestSweepSpec:
    def test_normalization(self):
        assert SPEC.programs == ("DYFESM", "TRFD")
        assert SPEC.architectures == ("ref", "dva")

    def test_plan_is_in_program_major_order(self):
        cells = [(c.program, c.latency, c.simulator.name) for c in plan_sweep(SPEC, None)]
        assert len(cells) == len(SPEC) == 8
        assert cells[:3] == [("DYFESM", 1, "ref"), ("DYFESM", 1, "dva"), ("DYFESM", 50, "ref")]
        assert cells[-1] == ("TRFD", 50, "dva")

    def test_comma_strings_read_like_sequences(self):
        parsed = SweepSpec("dyfesm, trfd", "1, 50", "ref,dva", scale=0.2)
        assert parsed == SPEC

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"programs": ()},
            {"latencies": ()},
            {"architectures": ()},
            {"latencies": (-1,)},
            {"scale": 0.0},
            {"programs": ("trfd", "trfd")},
            {"programs": ("trfd", "TRFD")},
            {"latencies": (1, 1)},
            {"latencies": (), "axes": {"latency": (50, 50)}},
            {"scale": float("nan")},
            {"scale": float("inf")},
            {"scale": -float("inf")},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        base = {
            "programs": ("trfd",),
            "latencies": (1,),
            "architectures": ("ref",),
            "scale": 1.0,
        }
        with pytest.raises(ConfigurationError):
            SweepSpec(**{**base, **kwargs})


class TestCostModel:
    def test_cost_is_the_trace_length(self):
        for program in program_names():
            assert estimate_cell_cost(program, 1.0) == len(load_program(program).build_trace(1.0))
        assert len({estimate_cell_cost(p, 1.0) for p in program_names()}) == 6

    def test_unknown_programs_cost_one(self):
        assert estimate_cell_cost("nasa7", 1.0) == 1

    def test_a_trace_over_the_row_limit_is_refused_before_a_row_is_built(self, monkeypatch):
        assert trace_rows("TRFD", 16.0) == 138_272 <= MAX_TRACE_ROWS
        monkeypatch.setattr(ProgramModel, "build_trace", _detonate)
        for scale in (1e4, 1e30):
            spec = SweepSpec(programs="trfd", latencies=(1,), scale=scale)
            with pytest.raises(WorkloadError, match=r"rows, more than the 33,554,432"):
                Runner().run(spec)


def _detonate(*args, **kwargs):
    raise AssertionError("a trace was built")


class TestRunner:
    def test_unknown_architecture_fails_before_running(self):
        spec = SweepSpec(programs=("trfd",), latencies=(1,), architectures=("vliw",))
        with pytest.raises(ConfigurationError, match="unknown architecture"):
            Runner().run(spec)

    def test_unknown_program_fails_before_running(self):
        spec = SweepSpec(programs=("nosuch",), latencies=(1,))
        with pytest.raises(WorkloadError, match="unknown benchmark"):
            Runner().run(spec)

    def test_results_follow_plan_order(self):
        sweep = run_sweep(SPEC)
        assert [r.cell_key for r in sweep] == [
            (c.program, c.latency, c.simulator.name) for c in plan_sweep(SPEC, None)
        ]

    def test_trace_cache_builds_each_program_once(self):
        runner = Runner()
        runner.run(SPEC)
        assert len(runner.trace_cache) == 2
        runner.run(SPEC)  # second run reuses the cached traces
        assert len(runner.trace_cache) == 2

    def test_sweep_determinism(self):
        first = run_sweep(SPEC)
        second = run_sweep(SPEC)
        assert first.results == second.results
        assert first.to_json() == second.to_json()

    def test_serial_and_multiprocess_runs_are_identical(self, two_cpus):
        serial = Runner(jobs=1).run(SPEC)
        with Runner(jobs=2) as parallel_runner:
            parallel = parallel_runner.run(SPEC)
        assert parallel_runner.effective_jobs == 2
        assert serial.results == parallel.results

    def test_pool_persists_across_runs(self, two_cpus):
        with Runner(jobs=2) as runner:
            first = runner.run(SPEC)
            pool = runner._scheduler._pool
            processes = [worker.process for worker in pool._workers]
            assert len(processes) == 2
            second = runner.run(SPEC)
            assert runner._scheduler._pool is pool
            assert [worker.process for worker in pool._workers] == processes
            assert first.results == second.results
        assert runner._scheduler is None
        assert all(process.exitcode == 0 for process in processes)

    def test_single_program_grid_parallelizes_by_cell_chunks(self, two_cpus):
        spec = SweepSpec(
            programs=("dyfesm",),
            latencies=(1, 50),
            architectures=("ref", "dva"),
            scale=0.2,
        )
        serial = Runner(jobs=1).run(spec)
        with Runner(jobs=2) as runner:
            parallel = runner.run(spec)
        assert serial.results == parallel.results

    def test_single_cell_sweep_runs_in_process(self, two_cpus):
        spec = SweepSpec(programs=("trfd",), latencies=(1,), architectures=("dva",), scale=0.2)
        with Runner(jobs=2) as runner:
            assert runner.run(spec).results == Runner(jobs=1).run(spec).results
            assert runner._scheduler is None

    def test_runner_caps_workers_to_available_cpus(self, monkeypatch):
        monkeypatch.setattr("repro.core.experiment._available_parallelism", lambda: 3)
        assert Runner(jobs=4096).effective_jobs == 3
        assert Runner(jobs=2).effective_jobs == 2
        monkeypatch.setattr("repro.core.experiment._available_parallelism", lambda: 1)
        runner = Runner(jobs=4096)
        # Capped to one worker, the runner stays in-process.
        assert runner.run(SPEC).results == Runner(jobs=1).run(SPEC).results
        assert runner._scheduler is None

    def test_invalid_job_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Runner(jobs=0)


def _stored_objects(store):
    """Every object in ``store`` by key, as the bytes on disk."""
    return {entry.key: store.object_path(entry.key).read_bytes() for entry in store.entries()}


class TestOneExecutor:
    """``Runner.run`` and ``Runner.run_batch`` share one executor."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_batch_matches_run_and_writes_the_same_objects(self, tmp_path, two_cpus, jobs):
        spec = SweepSpec(programs=("trfd",), latencies=(1, 50), scale=0.2)
        swept_store = ResultStore(tmp_path / "run")
        swept = Runner(jobs=1, store=swept_store).run(spec)
        batch_store = ResultStore(tmp_path / "batch")
        with Runner(jobs=jobs, store=batch_store) as runner:
            results = runner.run_batch(plan_sweep(spec, None))
            assert (runner._scheduler is not None) == (jobs == 2)
        assert results == swept.results
        assert len(results) == len(spec)
        assert _stored_objects(batch_store) == _stored_objects(swept_store)

    def test_an_empty_batch_returns_nothing_and_starts_no_pool(self, two_cpus):
        with Runner(jobs=2) as runner:
            assert runner.run_batch([]) == []
            assert runner._scheduler is None


def _exit_worker(task):
    """A worker's batch that kills the worker."""
    os._exit(3)


def _raise_workload_error(task):
    raise WorkloadError("batch exploded")


class TestWorkerPool:
    """The pool's failure paths: every batch either returns or raises, never hangs."""

    def test_a_batch_exception_reaches_its_caller_and_keeps_the_worker(
        self, monkeypatch, two_cpus
    ):
        cells = plan_sweep(SPEC, None)[:2]
        with Runner(jobs=2) as runner:
            monkeypatch.setattr(experiment, "_run_program_cells", _raise_workload_error)
            with pytest.raises(WorkloadError, match="batch exploded"):
                runner.run_batch(cells)
            workers = list(runner._scheduler._pool._workers)
            with pytest.raises(WorkloadError, match="batch exploded"):
                runner.run_batch(cells)
            assert runner._scheduler._pool._workers == workers
            assert all(worker.process.is_alive() for worker in workers)

    def test_a_dead_worker_fails_its_batch_and_is_replaced(
        self, monkeypatch, two_cpus, deadline
    ):
        cells = [cell for cell in plan_sweep(SPEC, None) if cell.program == "TRFD"]
        with deadline(60), Runner(jobs=2) as runner:
            monkeypatch.setattr(experiment, "_run_program_cells", _exit_worker)
            with pytest.raises(SimulationError, match=r"exited with code 3 .* TRFD batch"):
                runner.run_batch(cells)
            assert runner._scheduler._pool._workers == []
            monkeypatch.setattr(experiment, "_run_program_cells", _run_program_cells)
            assert runner.run_batch(cells) == Runner(jobs=1).run_batch(cells)

    def test_a_worker_killed_while_idle_fails_the_next_batch_and_is_replaced(
        self, two_cpus, deadline
    ):
        cells = [cell for cell in plan_sweep(SPEC, None) if cell.program == "TRFD"]
        with deadline(60), Runner(jobs=2) as runner:
            expected = runner.run_batch(cells)
            worker = runner._scheduler._pool._workers[0]
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=10)
            with pytest.raises(SimulationError, match=f"code -{int(signal.SIGKILL)} "):
                runner.run_batch(cells)
            assert runner.run_batch(cells) == expected

    def test_a_dead_worker_fails_a_pooled_grid_and_leaves_no_reply_behind(
        self, monkeypatch, tmp_path, two_cpus, deadline
    ):
        marker = tmp_path / "died"

        def exit_once_on_trfd(task):
            if task[0][0].program == "TRFD" and not marker.exists():
                marker.touch()
                os._exit(3)
            return _run_program_cells(task)

        with deadline(60), Runner(jobs=2) as runner:
            monkeypatch.setattr(experiment, "_run_program_cells", exit_once_on_trfd)
            with pytest.raises(SimulationError, match="TRFD batch"):
                runner.run(SPEC)
            # Every other batch's reply was read before the error was
            # raised, so the same pool's next grid gets its own results.
            assert runner.run(SPEC).results == Runner(jobs=1).run(SPEC).results

    @pytest.mark.parametrize("interrupt", ["raise", "signal"])
    def test_an_interrupted_pooled_run_leaves_no_worker_alive(self, two_cpus, deadline, interrupt):
        processes = []

        def stop(_event):
            processes.extend(worker.process for worker in runner._scheduler._pool._workers)
            if interrupt == "raise":
                raise KeyboardInterrupt
            os.kill(os.getpid(), signal.SIGINT)

        with deadline(60), Runner(jobs=2) as runner:
            with pytest.raises(KeyboardInterrupt):
                runner.run(SPEC, progress=stop)
            assert processes and not any(process.is_alive() for process in processes)
            assert runner._scheduler is None
            assert runner.run(SPEC).results == Runner(jobs=1).run(SPEC).results

    def test_a_pooled_runner_inside_a_running_event_loop_runs_in_process(self, two_cpus):
        async def main():
            with Runner(jobs=2) as runner:
                return runner.run(SPEC), runner._scheduler

        sweep, scheduler = asyncio.run(main())
        assert scheduler is None
        assert sweep.results == Runner(jobs=1).run(SPEC).results


def _half_warm_store(path):
    """A store holding SPEC's DYFESM cells, the first half of its grid."""
    store = ResultStore(path)
    Runner(jobs=1, store=store).run(
        SweepSpec(programs=("dyfesm",), latencies=SPEC.latencies, scale=SPEC.scale)
    )
    return store


def _check_progress_totals(events):
    assert [event.done for event in events] == list(range(1, len(SPEC) + 1))
    assert all(event.total == len(SPEC) for event in events)
    assert all(event.cached + event.simulated == event.done for event in events)
    # Hits are reported first, before any cell is simulated.
    assert [event.from_store for event in events] == [True] * 4 + [False] * 4
    assert (events[-1].cached, events[-1].simulated) == (4, 4)


class TestProgress:
    """The ``CellProgress`` contract, which per-cell timings are read from."""

    GRID = [(c.program, c.latency, c.simulator.name) for c in plan_sweep(SPEC, None)]
    KEYS = {(c.program, c.latency, c.simulator.name): c.key for c in plan_sweep(SPEC, None)}

    def test_serial_events_follow_each_store_write_in_grid_order(self, tmp_path):
        store = _half_warm_store(tmp_path / "store")
        events, stored = [], []

        def record(event):
            events.append(event)
            cell = (event.program, event.latency, event.architecture)
            stored.append(store.object_path(self.KEYS[cell]).exists())

        Runner(jobs=1, store=store).run(SPEC, progress=record)
        _check_progress_totals(events)
        assert [(e.program, e.latency, e.architecture) for e in events] == self.GRID
        assert all(stored)

    def test_pooled_events_have_the_same_totals_and_cells(self, tmp_path, two_cpus):
        store = _half_warm_store(tmp_path / "store")
        events = []
        with Runner(jobs=2, store=store) as runner:
            runner.run(SPEC, progress=events.append)
        _check_progress_totals(events)
        assert sorted((e.program, e.latency, e.architecture) for e in events) == sorted(
            self.GRID
        )


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_appends_one_index_line_per_simulated_cell(tmp_path, two_cpus, jobs):
    store = _half_warm_store(tmp_path / "store")
    warm_lines = len(store.index_path.read_text().splitlines())
    with Runner(jobs=jobs, store=store) as runner:
        sweep = runner.run(SPEC)
    lines = store.index_path.read_text().splitlines()[warm_lines:]
    assert sweep.simulated_count == 4
    assert sorted(json.loads(line)["key"] for line in lines) == sorted(
        result.store_key for result in sweep if not result.cached
    )


def _gc_state(task):
    """Stands in for a pool worker's batch: each cell's (collector on, objects frozen)."""
    return [(gc.isenabled(), gc.get_freeze_count())] * len(task[0])


class TestGarbageCollection:
    """Simulation never forces a collection and never pauses the collector."""

    def test_a_pool_batch_forces_no_collection(self, monkeypatch):
        monkeypatch.setattr("repro.core.experiment._WORKER_CACHE", TraceCache())
        spec = SweepSpec(programs=("trfd",), latencies=(1, 50), scale=0.2)
        cells = plan_sweep(spec, None)
        collections = []

        def record(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.disable()
        gc.callbacks.append(record)
        try:
            results = _run_program_cells((cells, None))
        finally:
            gc.callbacks.remove(record)
            if was_enabled:
                gc.enable()
        assert len(results) == len(cells)
        assert collections == []

    def test_pool_workers_keep_the_collector_on_over_a_frozen_heap(self, monkeypatch):
        monkeypatch.setattr("repro.core.experiment._run_program_cells", _gc_state)
        with Runner(jobs=2) as runner:
            if runner.effective_jobs < 2:
                pytest.skip("needs two CPUs for a worker pool")
            [(enabled, frozen), _] = runner.run_batch(plan_sweep(SPEC, None)[:2])
        assert enabled
        assert frozen > 0

    def test_a_capped_runner_leaves_the_collector_on(self, monkeypatch):
        monkeypatch.setattr("repro.core.experiment._available_parallelism", lambda: 1)
        seen = []
        sweep = Runner(jobs=2).run(SPEC, progress=lambda _event: seen.append(gc.isenabled()))
        assert len(seen) == len(sweep.results) == len(SPEC)
        assert all(seen)


class TestSweepResult:
    def test_get_and_missing_cell(self):
        sweep = run_sweep(SPEC)
        cell = sweep.get("dyfesm", 50, "DVA")
        assert cell.cell_key == ("DYFESM", 50, "dva")
        with pytest.raises(ConfigurationError, match="no cell"):
            sweep.get("dyfesm", 999, "dva")

    def test_by_architecture(self):
        sweep = run_sweep(SPEC)
        refs = sweep.by_architecture("ref")
        assert len(refs) == 4
        assert all(r.architecture == "ref" for r in refs)

    def test_json_round_trip(self):
        sweep = run_sweep(SPEC)
        rebuilt = SweepResult.from_json(json.loads(json.dumps(sweep.to_json())))
        assert rebuilt.spec == sweep.spec
        assert rebuilt.results == sweep.results

    def test_from_json_reads_the_spec_block_like_a_sweep_request(self):
        payload = json.loads(json.dumps(run_sweep(SPEC).to_json()))
        # A block without architectures takes SweepSpec's default, ref and dva.
        del payload["spec"]["architectures"]
        assert SweepResult.from_json(payload).spec == SPEC
        for spec_block in (["DYFESM"], {"latencies": [1]}, {**payload["spec"], "scale": "big"}):
            with pytest.raises(ConfigurationError):
                SweepResult.from_json({"spec": spec_block, "results": []})


class TestSpecMachines:
    def test_chaining_machine_from_a_spec_string(self):
        spec = SweepSpec(
            programs=("dyfesm",), latencies=(50,), architectures=("ref", "ref@chaining=on")
        )
        sweep = run_sweep(spec)
        assert (
            sweep.get("dyfesm", 50, "ref@chaining=on").total_cycles
            < sweep.get("dyfesm", 50, "ref").total_cycles
        )
