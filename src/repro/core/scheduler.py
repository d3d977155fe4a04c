"""The single-flight cell scheduler: the one path from a cold cell to a worker.

Every cell is planned by :func:`~repro.core.experiment.plan_sweep` into a
:class:`~repro.core.experiment.PlannedCell` carrying its content-addressed
key (:func:`~repro.store.cell_key`).  The scheduler turns such cells into
results for both of its callers: a pooled
:meth:`~repro.core.experiment.Runner.run` and the sweep service.  It keeps
three invariants:

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
  grid — which registers all its cells in one turn — still lands together.
  The flush is the one batching rule: one group per (program, scale), so
  each batch shares one trace; groups dealt round-robin into smaller
  batches when there are fewer groups than workers, so every worker gets
  one; costliest batch first.  Each batch goes to the scheduler's own
  :class:`~repro.core.pool.WorkerPool`, which writes it to an idle worker
  (or queues it until one is idle) and reads the reply in a
  ``loop.add_reader`` callback.  No thread stands between a cell and a
  worker, and the scheduler never simulates in its own process.

Workers write each result to the store as it completes and append their
batch's lines to the store's advisory index
(:func:`~repro.core.experiment._run_cells`).  A batch that fails — its
exception, or a worker that died running it — fails every waiter of its
cells, and the cells leave the in-flight registry, so the next request
simulates them again (on a fresh worker, if one died).
"""

from __future__ import annotations

import asyncio
import functools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import PlannedCell, estimate_cell_cost, worker_count
from repro.core.pool import WorkerPool
from repro.core.result import RunResult
from repro.store import ResultStore

#: One cold cell waiting for the next flush, with the future its waiters share.
_Pending = Tuple[PlannedCell, "asyncio.Future[RunResult]"]


class CellScheduler:
    """Turns cell requests into results: store-first, deduplicated, batched.

    Args:
        store: the result store answering warm cells and persisting cold
            ones; ``None`` runs store-less (every cell simulates).
        jobs: worker ceiling for the scheduler's pool, capped like a
            :class:`~repro.core.experiment.Runner`'s (at least one worker).
    """

    def __init__(self, store: Optional[ResultStore] = None, jobs: int = 1) -> None:
        self.store = store
        self._store_root = str(store.root) if store is not None else None
        self._pool = WorkerPool(worker_count(jobs))
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending: List[_Pending] = []
        self._flush_handle: Optional[asyncio.Handle] = None
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
        """Batch the pending cells and submit every batch to the pool.

        One group per (program, scale).  With fewer groups than workers,
        each group's cells are dealt round-robin into enough batches that
        every worker gets one (every cell of a group costs the same, see
        :func:`~repro.core.experiment.estimate_cell_cost`).  Batches are
        submitted costliest first (cells x the program's trace length), so
        the pool starts the longest simulations immediately.  Each batch's
        future settles its cells' futures (:meth:`_settle`).
        """
        self._flush_handle = None
        pending, self._pending = self._pending, []
        if not pending:
            return
        groups: Dict[Tuple[str, float], List[_Pending]] = {}
        for cell, future in pending:
            groups.setdefault((cell.program, cell.scale), []).append((cell, future))
        deal = -(-self._pool.size // len(groups))
        batches = [
            entries[offset::deal]
            for entries in groups.values()
            for offset in range(min(deal, len(entries)))
        ]
        batches.sort(
            key=lambda entries: -len(entries)
            * estimate_cell_cost(entries[0][0].program, entries[0][0].scale)
        )
        for entries in batches:
            self.batches_dispatched += 1
            batch = self._pool.submit(([cell for cell, _future in entries], self._store_root))
            batch.add_done_callback(functools.partial(self._settle, entries))

    def _settle(self, entries: Sequence[_Pending], batch: "asyncio.Future") -> None:
        """Resolve one finished batch's cell futures."""
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

    def close(self) -> None:
        """Stop accepting cells and release the worker pool.

        Every unanswered cell and batch is cancelled, so no failure is left
        unread on a loop that may never run again.  Workers finish the
        batch in hand, find their pipes closed and exit, and the pool joins
        them.
        """
        self._closed = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        for future in list(self._inflight.values()):
            future.cancel()
        self._pending = []
        self._pool.close()


__all__ = ["CellScheduler"]
