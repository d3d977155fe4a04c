"""The single-flight cell scheduler: dedup, store fast path, batching.

Simulation itself is faked with a counting pool so every concurrency
property is asserted deterministically and fast; the real pool is
exercised end-to-end in ``tests/service/test_server.py`` and by the pooled
runner tests.
"""

import asyncio
import os
import threading
from dataclasses import replace

import pytest

from repro.common.errors import SimulationError
from repro.core import experiment
from repro.core.experiment import SweepSpec, plan_sweep
from repro.core.result import RunResult
from repro.core.scheduler import CellScheduler
from repro.store import ResultStore


class CountingPool:
    """A WorkerPool stand-in: records batches, fabricates results, can be slow."""

    def __init__(self, size=1, delay=0.0, fail=False):
        self.size = size
        self.delay = delay
        self.fail = fail
        self.batches = []
        self.simulated = 0
        self.started = threading.Event()

    def submit(self, task):
        return asyncio.ensure_future(self._run(*task))

    async def _run(self, cells, store_root):
        self.started.set()
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.fail:
            raise RuntimeError("batch exploded")
        self.batches.append(tuple(cells))
        self.simulated += len(cells)
        results = []
        for cell in cells:
            detail = {
                "program": cell.program,
                "latency": cell.latency,
                "total_cycles": 1000 + cell.latency,
                "instructions": 100,
                "memory_traffic_bytes": 0,
                "scalar_cache_hits": 0,
                "scalar_cache_misses": 0,
            }
            result = RunResult(cell.simulator.name, detail)
            if store_root is not None:
                result = replace(result, store_key=cell.key)
                ResultStore(store_root).put(cell.key, result, scale=cell.scale)
            results.append(result)
        return results

    def close(self):
        pass


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def make_scheduler(store=None, **pool_kwargs):
    scheduler = CellScheduler(store=store)
    scheduler._pool = pool = CountingPool(**pool_kwargs)
    return scheduler, pool


def planned(program, latency, arch):
    """One cell as the service plans it: its own resolve, its own key."""
    [cell] = plan_sweep(
        SweepSpec(programs=(program,), latencies=(latency,), architectures=(arch,)), None
    )
    return cell


class TestSingleFlight:
    def test_concurrent_identical_cells_share_one_simulation(self, store):
        async def main():
            scheduler, pool = make_scheduler(store, delay=0.02)
            try:
                results = await asyncio.gather(
                    *(scheduler.run_cell(planned("TRFD", 50, "dva")) for _ in range(8))
                )
            finally:
                scheduler.close()
            return results, pool, scheduler

        results, pool, scheduler = asyncio.run(main())
        assert pool.simulated == 1
        assert len(pool.batches) == 1
        assert scheduler.inflight_joins == 7
        assert scheduler.cells_requested == 8
        assert all(result == results[0] for result in results)

    def test_separately_resolved_inline_specs_share_one_simulation(self, store):
        """Cell identity is the spec and label, not the resolved object."""

        async def main():
            scheduler, pool = make_scheduler(store, delay=0.02)
            try:
                await asyncio.gather(
                    scheduler.run_cell(planned("TRFD", 50, "dva@lanes=2")),
                    scheduler.run_cell(planned("TRFD", 50, "dva@lanes=2")),
                )
            finally:
                scheduler.close()
            return pool, scheduler

        pool, scheduler = asyncio.run(main())
        assert pool.simulated == 1
        assert scheduler.inflight_joins == 1

    def test_a_cancelled_waiter_does_not_cancel_the_shared_simulation(self, store):
        async def main():
            scheduler, pool = make_scheduler(store, delay=0.05)
            try:
                first = asyncio.ensure_future(scheduler.run_cell(planned("TRFD", 50, "dva")))
                await asyncio.sleep(0)  # let it register in-flight
                second = asyncio.ensure_future(scheduler.run_cell(planned("TRFD", 50, "dva")))
                await asyncio.sleep(0.01)  # batch dispatched, simulation running
                first.cancel()
                result = await second
                assert first.cancelled()
                return result, pool
            finally:
                scheduler.close()

        result, pool = asyncio.run(main())
        assert pool.simulated == 1
        assert result.total_cycles == 1050

    def test_in_flight_map_empties_once_results_land(self, store):
        async def main():
            scheduler, _pool = make_scheduler(store)
            try:
                await scheduler.run_cell(planned("TRFD", 1, "dva"))
                return scheduler.inflight_count
            finally:
                scheduler.close()

        assert asyncio.run(main()) == 0

    def test_batch_failure_propagates_to_every_waiter(self, store):
        async def main():
            scheduler, _pool = make_scheduler(store, fail=True)
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
    def test_warm_cells_never_touch_the_pool(self, store):
        async def warm():
            scheduler, _pool = make_scheduler(store)
            try:
                await scheduler.run_cell(planned("TRFD", 50, "dva"))
            finally:
                scheduler.close()

        asyncio.run(warm())

        async def cold_pool_must_stay_cold():
            scheduler, pool = make_scheduler(store, fail=True)  # dispatch would raise
            try:
                result = await scheduler.run_cell(planned("TRFD", 50, "dva"))
                return result, pool, scheduler
            finally:
                scheduler.close()

        result, pool, scheduler = asyncio.run(cold_pool_must_stay_cold())
        assert result.cached is True
        assert scheduler.store_hits == 1
        assert scheduler.batches_dispatched == 0
        assert pool.batches == []


class TestBatching:
    def test_a_lone_cold_cell_dispatches_on_the_next_loop_turn(self, store):
        # No timer stands between a miss and the pool: the task registers
        # the cell, the next turn flushes it, the one after that submits the
        # batch.  The wait below blocks the loop, so a timer could not fire.
        async def main():
            scheduler, pool = make_scheduler(store)
            try:
                waiter = asyncio.ensure_future(scheduler.run_cell(planned("TRFD", 50, "dva")))
                for _ in range(3):
                    await asyncio.sleep(0)
                reached = pool.started.wait(timeout=5)
                await waiter
                return reached, scheduler
            finally:
                scheduler.close()

        reached, scheduler = asyncio.run(main())
        assert reached
        assert scheduler.batches_dispatched == 1

    def test_cells_registered_in_one_loop_turn_coalesce_per_program(self, store):
        async def main():
            scheduler, pool = make_scheduler(store, delay=0.005)
            try:
                await asyncio.gather(
                    scheduler.run_cell(planned("TRFD", 1, "dva")),
                    scheduler.run_cell(planned("TRFD", 50, "dva")),
                    scheduler.run_cell(planned("TRFD", 1, "ref")),
                    scheduler.run_cell(planned("DYFESM", 1, "dva")),
                )
                return pool, scheduler
            finally:
                scheduler.close()

        pool, scheduler = asyncio.run(main())
        assert scheduler.batches_dispatched == 2  # one per program
        by_program = {batch[0].program: batch for batch in pool.batches}
        assert len(by_program["TRFD"]) == 3
        assert len(by_program["DYFESM"]) == 1

    def test_a_one_program_grid_is_dealt_to_every_worker(self, store):
        cells = plan_sweep(SweepSpec(programs="trfd", latencies=(1, 50), scale=0.2), None)

        async def main():
            scheduler, pool = make_scheduler(store, size=2)
            try:
                await asyncio.gather(*map(scheduler.run_cell, cells))
                return pool, scheduler
            finally:
                scheduler.close()

        pool, scheduler = asyncio.run(main())
        assert scheduler.batches_dispatched == 2
        # Dealt round-robin: every other cell of the grid in each batch.
        assert pool.batches == [tuple(cells[0::2]), tuple(cells[1::2])]

    def test_groups_are_submitted_costliest_first(self, store):
        async def main():
            scheduler, pool = make_scheduler(store)
            try:
                await asyncio.gather(
                    scheduler.run_cell(planned("DYFESM", 1, "dva")),
                    scheduler.run_cell(planned("TRFD", 1, "dva")),
                )
                return pool
            finally:
                scheduler.close()

        # TRFD's trace is twice DYFESM's length.
        assert [batch[0].program for batch in asyncio.run(main()).batches] == ["TRFD", "DYFESM"]

    def test_distinct_sweeps_interleave_through_the_same_scheduler(self, store):
        # Two "sweeps" (disjoint cell sets) submitted concurrently: every
        # cell completes, each exactly once, with no cross-talk.
        async def sweep(scheduler, program, latencies):
            return await asyncio.gather(
                *(scheduler.run_cell(planned(program, latency, "dva")) for latency in latencies)
            )

        async def main():
            scheduler, pool = make_scheduler(store, delay=0.01)
            try:
                first, second = await asyncio.gather(
                    sweep(scheduler, "TRFD", (1, 50, 100)),
                    sweep(scheduler, "DYFESM", (1, 50, 100)),
                )
                return first, second, pool
            finally:
                scheduler.close()

        first, second, pool = asyncio.run(main())
        assert [result.latency for result in first] == [1, 50, 100]
        assert [result.program for result in second] == ["DYFESM"] * 3
        assert pool.simulated == 6

    def test_counters_have_exactly_the_documented_keys(self, store):
        async def main():
            scheduler, _pool = make_scheduler(store)
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
            scheduler, _pool = make_scheduler(store)
            scheduler.close()
            with pytest.raises(RuntimeError):
                await scheduler.run_cell(planned("TRFD", 1, "dva"))

        asyncio.run(main())


_run_program_cells = experiment._run_program_cells


def _exit_worker(task):
    """A worker's batch that kills the worker."""
    os._exit(3)


class TestDeadWorker:
    """A worker that dies mid-batch fails its cells; it never hangs the service."""

    def test_the_cell_fails_leaves_the_registry_and_simulates_on_a_fresh_worker(
        self, store, monkeypatch
    ):
        async def main():
            scheduler = CellScheduler(store=store, jobs=1)
            try:
                cell = planned("TRFD", 50, "dva")
                monkeypatch.setattr(experiment, "_run_program_cells", _exit_worker)
                waiters = [scheduler.run_cell(cell), scheduler.run_cell(cell)]
                failures = await asyncio.wait_for(
                    asyncio.gather(*waiters, return_exceptions=True), timeout=60
                )
                inflight = scheduler.inflight_count
                monkeypatch.setattr(experiment, "_run_program_cells", _run_program_cells)
                result = await asyncio.wait_for(scheduler.run_cell(cell), timeout=60)
                return failures, inflight, result, list(scheduler._pool._workers)
            finally:
                scheduler.close()

        failures, inflight, result, workers = asyncio.run(main())
        assert all(isinstance(failure, SimulationError) for failure in failures)
        assert "exited with code 3" in str(failures[0]) and "TRFD" in str(failures[0])
        assert inflight == 0
        assert result.cached is False and result.total_cycles > 0
        assert len(workers) == 1
