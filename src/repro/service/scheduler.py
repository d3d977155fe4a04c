"""The single-flight cell scheduler behind the sweep service.

Every request the service receives is planned into *cells* by
:func:`~repro.core.experiment.plan_sweep`: one
:class:`~repro.core.experiment.PlannedCell` per (program, scale, latency,
machine) point, carrying its content-addressed key
(:func:`~repro.store.cell_key`).  The scheduler is the one place such a
cell becomes a result, and it enforces the three service invariants:

* **store hits never touch the worker path.**  A cell already in the
  :class:`~repro.store.ResultStore` is answered synchronously on the event
  loop — one small file read, no trace build, no pool dispatch — so a
  fully-warm sweep costs microseconds per cell.
* **in-flight cells are deduplicated.**  Two concurrent requests for the
  same ``cell_key`` share one simulation: the first registers a future under
  the key, later arrivals await that same future
  (:attr:`CellScheduler.inflight_joins` counts them).  Waiters await through
  :func:`asyncio.shield`, so a client that disconnects — cancelling its
  request task — can never cancel the shared simulation out from under the
  other waiters.
* **cold cells are batched without waiting.**  A cache-missing cell is
  queued, and the scheduler flushes the queue on the next event-loop turn
  (``loop.call_soon``), so a lone cold cell dispatches at once while a
  sweep submission — which registers its whole grid in one turn — still
  lands together.  The queue is grouped by (program, scale) so each batch
  shares one trace, and each group's cells go as they are to
  :meth:`~repro.core.experiment.Runner.submit_batch`, which writes them to
  an idle worker of the runner's :class:`~repro.core.pool.WorkerPool` (or
  queues them until one is idle) and reads the reply in a
  ``loop.add_reader`` callback.  No thread stands between a request and a
  worker, and the service never simulates in its own process: with
  ``--jobs 1`` the pool has one worker.

Simulation results are written back to the store per cell by the worker
(exactly as CLI sweeps do).  Once a batch's futures are resolved, the
scheduler appends its cells to the store's advisory index inline on the
loop: one ``stat`` per cell and one ``write``, the same class of work as a
store hit's synchronous read.  A batch that fails — its exception, or a
worker that died running it — fails every waiter of its cells, and the
cells leave the in-flight registry, so the next request simulates them
again (on a fresh worker, if one died).
"""

from __future__ import annotations

import asyncio
import functools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import PlannedCell, Runner, estimate_cell_cost
from repro.core.result import RunResult
from repro.store import ResultStore

#: One cold cell waiting for the next flush, with the future its waiters share.
_Pending = Tuple[PlannedCell, "asyncio.Future[RunResult]"]


class CellScheduler:
    """Turns cell requests into results: store-first, deduplicated, batched.

    Args:
        store: the result store answering warm cells and persisting cold
            ones; ``None`` runs store-less (every cell simulates — useful
            only for tests).
        jobs: worker ceiling handed to the underlying
            :class:`~repro.core.experiment.Runner`, whose pool (at least one
            worker) simulates every cold batch.
        runner: inject a pre-configured runner (tests); defaults to
            ``Runner(jobs=jobs, store=store)``.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        runner: Optional[Runner] = None,
    ) -> None:
        self.store = store
        self.runner = runner if runner is not None else Runner(jobs=jobs, store=store)
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending: List[_Pending] = []
        self._flush_handle: Optional[asyncio.Handle] = None
        self._batches: "set[asyncio.Future]" = set()
        self._closed = False
        # Counters surfaced by /v1/stats.
        self.cells_requested = 0
        self.store_hits = 0
        self.inflight_joins = 0
        self.simulated = 0
        self.batches_dispatched = 0

    # -- the public entry point --------------------------------------------------------

    async def run_cell(self, cell: PlannedCell) -> RunResult:
        """One planned cell's result: from the store, a shared in-flight
        simulation, or a freshly dispatched batch — in that order of
        preference.  ``cell.key`` is its identity for all three.

        Everything from the in-flight check to future registration runs
        synchronously on the event loop, so two coroutines can never both
        miss the registry and dispatch the same cell twice.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        self.cells_requested += 1
        key = cell.key
        shared = self._inflight.get(key)
        if shared is not None:
            self.inflight_joins += 1
            return await asyncio.shield(shared)
        if self.store is not None:
            found = self.store.get(key)
            if found is not None:
                self.store_hits += 1
                return found

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[RunResult]" = loop.create_future()
        self._inflight[key] = future
        future.add_done_callback(lambda _done, _key=key: self._inflight.pop(_key, None))
        self._pending.append((cell, future))
        self._schedule_flush(loop)
        return await asyncio.shield(future)

    # -- batching ----------------------------------------------------------------------

    def _schedule_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._flush_handle is None:
            self._flush_handle = loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Group the pending cells per program and dispatch each group.

        Groups are dispatched costliest first (cells x the program's
        estimated trace length), so when one turn queued more program
        groups than the runner has workers, the pool starts the longest
        simulations immediately instead of discovering them last.  Each
        batch's future settles its cells' futures (:meth:`_settle`).
        """
        self._flush_handle = None
        pending, self._pending = self._pending, []
        if not pending:
            return
        groups: Dict[Tuple[str, float], List[_Pending]] = {}
        for cell, future in pending:
            groups.setdefault((cell.program, cell.scale), []).append((cell, future))
        ordered = sorted(
            groups.items(),
            key=lambda item: -len(item[1]) * estimate_cell_cost(*item[0]),
        )
        for _group, entries in ordered:
            self.batches_dispatched += 1
            batch = asyncio.ensure_future(
                self.runner.submit_batch([cell for cell, _future in entries])
            )
            self._batches.add(batch)
            batch.add_done_callback(functools.partial(self._settle, entries))

    def _settle(self, entries: Sequence[_Pending], batch: "asyncio.Future") -> None:
        """Resolve one finished batch's cell futures and index its results."""
        self._batches.discard(batch)
        failure = RuntimeError("batch cancelled") if batch.cancelled() else batch.exception()
        if failure is not None:
            for _cell, future in entries:
                if not future.done():
                    future.set_exception(failure)
            return
        results = batch.result()
        self.simulated += len(results)
        for (_cell, future), result in zip(entries, results):
            if not future.done():
                future.set_result(result)
        if self.store is not None:
            self.store.update_index(results, entries[0][0].scale)

    # -- introspection and lifecycle ---------------------------------------------------

    @property
    def inflight_count(self) -> int:
        """Cells currently being simulated (or queued for the next batch)."""
        return len(self._inflight)

    def counters(self) -> Dict[str, int]:
        """The scheduler's traffic counters, for ``/v1/stats``."""
        return {
            "cells_requested": self.cells_requested,
            "store_hits": self.store_hits,
            "inflight_joins": self.inflight_joins,
            "simulated": self.simulated,
            "batches_dispatched": self.batches_dispatched,
            "inflight_now": self.inflight_count,
        }

    async def drain(self) -> None:
        """Wait for every queued and in-flight batch to finish (tests, shutdown)."""
        while self._pending or self._flush_handle is not None or self._batches:
            if self._flush_handle is not None:
                self._flush_handle.cancel()
                self._flush_handle = None
                self._flush()
            if self._batches:
                await asyncio.gather(*list(self._batches), return_exceptions=True)
            else:
                await asyncio.sleep(0)

    def close(self) -> None:
        """Stop accepting cells and release the worker pool.

        Batches still running fail with the pool's closing error; their
        workers finish the batch in hand, find their pipes closed and exit,
        and the runner joins them.
        """
        self._closed = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        for _cell, future in self._pending:
            if not future.done():
                future.set_exception(RuntimeError("scheduler closed"))
        self._pending = []
        self.runner.close()


__all__ = ["CellScheduler"]
