"""The single-flight cell scheduler: dedup, store fast path, batching.

Simulation itself is faked with a counting runner so every concurrency
property is asserted deterministically and fast; the real runner is
exercised end-to-end in ``test_server.py`` and by the sweep tests.
"""

import asyncio
import json
import threading
import time
from dataclasses import replace

import pytest

from repro.core.config import RunConfig
from repro.core.experiment import SweepSpec, plan_sweep
from repro.core.registry import resolve_architecture
from repro.core.result import RunResult
from repro.service.scheduler import CellScheduler
from repro.store import ResultStore, cell_key


class CountingRunner:
    """A Runner stand-in: records batches, fabricates results, can be slow."""

    def __init__(self, store=None, delay=0.0, fail=False):
        self.store = store
        self.delay = delay
        self.fail = fail
        self.lock = threading.Lock()
        self.batches = []
        self.simulated = 0
        self.effective_jobs = 1
        self.started = threading.Event()

    def run_batch(self, cells):
        self.started.set()
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("batch exploded")
        with self.lock:
            self.batches.append(tuple(cells))
            self.simulated += len(cells)
        results = []
        for cell in cells:
            # Headline fields live in `detail` too, so the result survives
            # the store's JSON round trip (from_json rebuilds from detail).
            detail = {
                "program": cell.program,
                "latency": cell.latency,
                "total_cycles": 1000 + cell.latency,
                "instructions": 100,
                "memory_traffic_bytes": 0,
                "scalar_cache_hits": 0,
                "scalar_cache_misses": 0,
            }
            result = RunResult(
                architecture=cell.simulator.name,
                program=cell.program,
                latency=cell.latency,
                total_cycles=1000 + cell.latency,
                instructions=100,
                detail=detail,
            )
            if self.store is not None:
                result = replace(result, store_key=cell.key)
                self.store.put(cell.key, result, scale=cell.scale)
            results.append(result)
        return results

    def close(self):
        pass


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def make_scheduler(store=None, **runner_kwargs):
    runner = CountingRunner(store=store, **runner_kwargs)
    return CellScheduler(store=store, runner=runner), runner


def planned(program, latency, arch):
    """One cell as the service plans it: its own resolve, its own key."""
    [cell] = plan_sweep(
        SweepSpec(programs=(program,), latencies=(latency,), architectures=(arch,)), None
    )
    return cell


DVA = resolve_architecture("dva")


class TestSingleFlight:
    def test_concurrent_identical_cells_share_one_simulation(self, store):
        async def main():
            scheduler, runner = make_scheduler(store, delay=0.02)
            try:
                results = await asyncio.gather(
                    *(scheduler.run_cell(planned("TRFD", 50, "dva")) for _ in range(8))
                )
            finally:
                scheduler.close()
            return results, runner, scheduler

        results, runner, scheduler = asyncio.run(main())
        assert runner.simulated == 1
        assert len(runner.batches) == 1
        assert scheduler.inflight_joins == 7
        assert scheduler.cells_requested == 8
        assert all(result == results[0] for result in results)

    def test_separately_resolved_inline_specs_share_one_simulation(self, store):
        """Cell identity is the spec and label, not the resolved object."""

        async def main():
            scheduler, runner = make_scheduler(store, delay=0.02)
            try:
                await asyncio.gather(
                    scheduler.run_cell(planned("TRFD", 50, "dva@lanes=2")),
                    scheduler.run_cell(planned("TRFD", 50, "dva@lanes=2")),
                )
            finally:
                scheduler.close()
            return runner, scheduler

        runner, scheduler = asyncio.run(main())
        assert runner.simulated == 1
        assert scheduler.inflight_joins == 1

    def test_a_cancelled_waiter_does_not_cancel_the_shared_simulation(self, store):
        async def main():
            scheduler, runner = make_scheduler(store, delay=0.05)
            try:
                first = asyncio.ensure_future(scheduler.run_cell(planned("TRFD", 50, "dva")))
                await asyncio.sleep(0)  # let it register in-flight
                second = asyncio.ensure_future(scheduler.run_cell(planned("TRFD", 50, "dva")))
                await asyncio.sleep(0.01)  # batch dispatched, simulation running
                first.cancel()
                result = await second
                assert first.cancelled()
                return result, runner
            finally:
                scheduler.close()

        result, runner = asyncio.run(main())
        assert runner.simulated == 1
        assert result.total_cycles == 1050

    def test_in_flight_map_empties_once_results_land(self, store):
        async def main():
            scheduler, _runner = make_scheduler(store)
            try:
                await scheduler.run_cell(planned("TRFD", 1, "dva"))
                return scheduler.inflight_count
            finally:
                scheduler.close()

        assert asyncio.run(main()) == 0

    def test_batch_failure_propagates_to_every_waiter(self, store):
        async def main():
            scheduler, _runner = make_scheduler(store, fail=True)
            try:
                waiters = [
                    asyncio.ensure_future(scheduler.run_cell(planned("TRFD", 1, "dva")))
                    for _ in range(3)
                ]
                outcomes = await asyncio.gather(*waiters, return_exceptions=True)
                return outcomes, scheduler.inflight_count
            finally:
                scheduler.close()

        outcomes, inflight = asyncio.run(main())
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)
        assert inflight == 0


class TestStoreFastPath:
    def test_warm_cells_never_touch_the_runner(self, store):
        async def warm():
            scheduler, _runner = make_scheduler(store)
            try:
                await scheduler.run_cell(planned("TRFD", 50, "dva"))
            finally:
                scheduler.close()

        asyncio.run(warm())

        async def cold_runner_must_stay_cold():
            scheduler, runner = make_scheduler(store, fail=True)  # dispatch would raise
            try:
                result = await scheduler.run_cell(planned("TRFD", 50, "dva"))
                return result, runner, scheduler
            finally:
                scheduler.close()

        result, runner, scheduler = asyncio.run(cold_runner_must_stay_cold())
        assert result.cached is True
        assert scheduler.store_hits == 1
        assert scheduler.batches_dispatched == 0
        assert runner.batches == []

    def test_simulated_cells_are_merged_into_the_advisory_index(self, store):
        async def main():
            scheduler, _runner = make_scheduler(store)
            try:
                await scheduler.run_cell(planned("TRFD", 50, "dva"))
                await scheduler.drain()
            finally:
                scheduler.close()

        asyncio.run(main())
        key = cell_key("TRFD", 1.0, 50, DVA, RunConfig(latency=50))
        [line] = store.index_path.read_text().splitlines()
        assert json.loads(line)["key"] == key


class TestBatching:
    def test_a_lone_cold_cell_dispatches_on_the_next_loop_turn(self, store):
        # No timer stands between a miss and the runner: the task registers
        # the cell, the next turn flushes it, the one after that submits the
        # batch.  The wait below blocks the loop, so a timer could not fire.
        async def main():
            scheduler, runner = make_scheduler(store)
            try:
                waiter = asyncio.ensure_future(scheduler.run_cell(planned("TRFD", 50, "dva")))
                for _ in range(3):
                    await asyncio.sleep(0)
                reached = runner.started.wait(timeout=5)
                await waiter
                return reached, scheduler
            finally:
                scheduler.close()

        reached, scheduler = asyncio.run(main())
        assert reached
        assert scheduler.batches_dispatched == 1

    def test_cells_registered_in_one_loop_turn_coalesce_per_program(self, store):
        async def main():
            scheduler, runner = make_scheduler(store, delay=0.005)
            try:
                await asyncio.gather(
                    scheduler.run_cell(planned("TRFD", 1, "dva")),
                    scheduler.run_cell(planned("TRFD", 50, "dva")),
                    scheduler.run_cell(planned("TRFD", 1, "ref")),
                    scheduler.run_cell(planned("DYFESM", 1, "dva")),
                )
                return runner, scheduler
            finally:
                scheduler.close()

        runner, scheduler = asyncio.run(main())
        assert scheduler.batches_dispatched == 2  # one per program
        by_program = {batch[0].program: batch for batch in runner.batches}
        assert len(by_program["TRFD"]) == 3
        assert len(by_program["DYFESM"]) == 1

    def test_distinct_sweeps_interleave_through_the_same_scheduler(self, store):
        # Two "sweeps" (disjoint cell sets) submitted concurrently: every
        # cell completes, each exactly once, with no cross-talk.
        async def sweep(scheduler, program, latencies):
            return await asyncio.gather(
                *(scheduler.run_cell(planned(program, latency, "dva")) for latency in latencies)
            )

        async def main():
            scheduler, runner = make_scheduler(store, delay=0.01)
            try:
                first, second = await asyncio.gather(
                    sweep(scheduler, "TRFD", (1, 50, 100)),
                    sweep(scheduler, "DYFESM", (1, 50, 100)),
                )
                return first, second, runner
            finally:
                scheduler.close()

        first, second, runner = asyncio.run(main())
        assert [result.latency for result in first] == [1, 50, 100]
        assert [result.program for result in second] == ["DYFESM"] * 3
        assert runner.simulated == 6

    def test_counters_have_exactly_the_documented_keys(self, store):
        async def main():
            scheduler, _runner = make_scheduler(store)
            try:
                await scheduler.run_cell(planned("TRFD", 1, "dva"))
                await scheduler.run_cell(planned("TRFD", 1, "dva"))
                return scheduler.counters()
            finally:
                scheduler.close()

        assert asyncio.run(main()) == {
            "cells_requested": 2,
            "store_hits": 1,
            "inflight_joins": 0,
            "simulated": 1,
            "batches_dispatched": 1,
            "inflight_now": 0,
        }

    def test_closed_scheduler_rejects_new_cells(self, store):
        async def main():
            scheduler, _runner = make_scheduler(store)
            scheduler.close()
            with pytest.raises(RuntimeError):
                await scheduler.run_cell(planned("TRFD", 1, "dva"))

        asyncio.run(main())
