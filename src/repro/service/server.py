"""The sweep service: an asyncio HTTP daemon over the result store.

``repro serve`` starts a :class:`ReproService` — the step from CLI tool to
long-running system.  Many concurrent clients submit runs and sweeps; the
service answers warm cells straight from the
:class:`~repro.store.ResultStore` in microseconds, deduplicates identical
in-flight cells across clients (single-flight, see
:class:`~repro.core.scheduler.CellScheduler`), hands cold cells in
batches to the scheduler's worker processes, and streams per-cell progress
as server-sent events.

The JSON API (all under ``/v1``):

========  ======================  =================================================
method    path                    behaviour
========  ======================  =================================================
POST      ``/v1/run``             simulate (or fetch) one cell; blocks until done
POST      ``/v1/sweeps``          submit a sweep grid; ``202`` + sweep id at once
GET       ``/v1/sweeps``          list known sweeps (id, state, progress)
GET       ``/v1/sweeps/{id}``     status + counts (+ full results when done)
GET       ``/v1/sweeps/{id}/events``  SSE stream: one event per finished cell
GET       ``/v1/healthz``         liveness + uptime
GET       ``/v1/stats``           the ``repro cache stats --json`` payload + service counters
========  ======================  =================================================

Sweeps execute as *background tasks*: submission plans the whole grid with
:func:`~repro.core.experiment.plan_sweep` (unknown programs, bad
architectures, duplicate cells → ``400`` immediately), then every planned
cell is awaited through the scheduler concurrently.  A run is planned the
same way, as a one-cell sweep.  Clients watch via polling or the event
stream; a client disconnecting mid-stream disconnects the *stream*, never
the sweep.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import secrets
import signal
import time
from pathlib import Path
from typing import AsyncIterator, Dict, List, Optional, Union

from repro import __version__
from repro.core.experiment import (
    CellProgress,
    PlannedCell,
    SweepResult,
    SweepSpec,
    _ProgressTracker,
    plan_sweep,
)
from repro.core.result import RunResult
from repro.core.scheduler import CellScheduler
from repro.service.http import (
    EventStream,
    HttpError,
    Request,
    Response,
    Router,
    json_response,
    serve_connection,
)
from repro.service.protocol import parse_run_request, result_payload
from repro.store import ResultStore


class SweepJob:
    """One submitted sweep: its spec, background task, and event history.

    Progress events accumulate in :attr:`events` (every stream replays the
    full history first, so a late subscriber misses nothing).  Waiters park
    on the current wake-up event; :meth:`_notify` swaps in a fresh one and
    sets the old, which wakes *every* parked stream without the clear/set
    races a shared :class:`asyncio.Event` would invite.
    """

    def __init__(self, job_id: str, spec: SweepSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.state = "running"  # running | done | failed
        self.error: Optional[str] = None
        self.created_unix = time.time()
        self.finished_unix: Optional[float] = None
        self.events: List[Dict[str, object]] = []
        self.result: Optional[SweepResult] = None
        self.task: Optional[asyncio.Task] = None
        self._wakeup: asyncio.Event = asyncio.Event()

    @property
    def total(self) -> int:
        return len(self.spec)

    @property
    def done(self) -> int:
        return len(self.events)

    def _notify(self) -> None:
        wakeup, self._wakeup = self._wakeup, asyncio.Event()
        wakeup.set()

    def record(self, event: CellProgress) -> None:
        """Append one cell's progress event and wake every stream."""
        self.events.append(dataclasses.asdict(event))
        self._notify()

    def finish(self, result: SweepResult) -> None:
        self.result = result
        self.state = "done"
        self.finished_unix = time.time()
        self._notify()

    def fail(self, error: BaseException) -> None:
        self.error = f"{type(error).__name__}: {error}"
        self.state = "failed"
        self.finished_unix = time.time()
        self._notify()

    async def stream_events(self) -> AsyncIterator[Dict[str, object]]:
        """Replay history, then yield live events until the job settles."""
        index = 0
        while True:
            while index < len(self.events):
                yield self.events[index]
                index += 1
            if self.state != "running":
                return
            waiter = self._wakeup
            await waiter.wait()

    def status_payload(self, include_results: bool = False) -> Dict[str, object]:
        # The last event holds the running cached/simulated counts.
        last = self.events[-1] if self.events else {"cached": 0, "simulated": 0}
        payload: Dict[str, object] = {
            "sweep": self.id,
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "cached": last["cached"],
            "simulated": last["simulated"],
            "created_unix": round(self.created_unix, 3),
            "spec": self.spec.to_json(),
        }
        if self.finished_unix is not None:
            payload["elapsed_seconds"] = round(self.finished_unix - self.created_unix, 6)
        if self.error is not None:
            payload["error"] = self.error
        if include_results and self.result is not None:
            payload["results"] = [result_payload(result) for result in self.result]
        return payload


class ReproService:
    """The HTTP application: routes, sweep jobs, and the cell scheduler.

    Args:
        store: a :class:`ResultStore`, a directory path for one, or ``None``
            for the default store location.  The service *requires* a store —
            answering from it is the point — so unlike CLI sweeps there is
            no store-less mode.
        jobs: worker ceiling for cold-cell simulation.
    """

    def __init__(
        self,
        store: Union[ResultStore, str, Path, None] = None,
        jobs: int = 1,
    ) -> None:
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.scheduler = CellScheduler(store=store, jobs=jobs)
        self.jobs = jobs
        self.sweeps: Dict[str, SweepJob] = {}
        self.started_unix = time.time()
        self.requests_served = 0
        self._ids = itertools.count(1)
        self.router = Router()
        self.router.add("GET", "/v1/healthz", self._handle_healthz)
        self.router.add("GET", "/v1/stats", self._handle_stats)
        self.router.add("POST", "/v1/run", self._handle_run)
        self.router.add("POST", "/v1/sweeps", self._handle_submit_sweep)
        self.router.add("GET", "/v1/sweeps", self._handle_list_sweeps)
        self.router.add("GET", "/v1/sweeps/{sweep_id}", self._handle_sweep_status)
        self.router.add("GET", "/v1/sweeps/{sweep_id}/events", self._handle_sweep_events)

    # -- request handlers --------------------------------------------------------------

    async def _handle_healthz(self, request: Request) -> Response:
        return json_response(
            {
                "status": "ok",
                "version": __version__,
                "uptime_seconds": round(time.time() - self.started_unix, 3),
                "store_root": str(self.store.root),
                "jobs": self.jobs,
                "sweeps": len(self.sweeps),
            }
        )

    async def _handle_stats(self, request: Request) -> Response:
        """The exact ``repro cache stats --json`` payload plus a ``service`` block.

        The store's numbers are a fresh scan of the disk.  The traffic
        counters are the scheduler's, which sees every cell the service
        answers; the workers write the store from their own processes.
        """
        payload = self.store.stats()
        payload["service"] = {
            "uptime_seconds": round(time.time() - self.started_unix, 3),
            "requests_served": self.requests_served,
            "sweeps_submitted": len(self.sweeps),
            "sweeps_running": sum(
                1 for job in self.sweeps.values() if job.state == "running"
            ),
            "scheduler": self.scheduler.counters(),
        }
        return json_response(payload)

    async def _handle_run(self, request: Request) -> Response:
        # Planning is the Runner's own validation: unknown program → 400.
        [cell] = plan_sweep(parse_run_request(request.json()), None)
        result: RunResult = await self.scheduler.run_cell(cell)
        return json_response(result_payload(result))

    async def _handle_submit_sweep(self, request: Request) -> Response:
        spec = SweepSpec.from_json(request.json())
        cells = plan_sweep(spec, None)  # the Runner's own validation
        job = SweepJob(f"sw-{next(self._ids):05d}-{secrets.token_hex(4)}", spec)
        self.sweeps[job.id] = job
        job.task = asyncio.ensure_future(self._run_sweep(job, cells))
        return json_response(
            {
                "sweep": job.id,
                "state": job.state,
                "total": job.total,
                "status_url": f"/v1/sweeps/{job.id}",
                "events_url": f"/v1/sweeps/{job.id}/events",
            },
            status=202,
        )

    async def _handle_list_sweeps(self, request: Request) -> Response:
        return json_response(
            {
                "sweeps": [
                    job.status_payload(include_results=False)
                    for job in self.sweeps.values()
                ]
            }
        )

    def _job(self, sweep_id: str) -> SweepJob:
        job = self.sweeps.get(sweep_id)
        if job is None:
            raise HttpError(404, f"no such sweep: {sweep_id}")
        return job

    async def _handle_sweep_status(self, request: Request, sweep_id: str) -> Response:
        job = self._job(sweep_id)
        include = request.query.get("results", "done") != "none"
        return json_response(job.status_payload(include_results=include))

    async def _handle_sweep_events(self, request: Request, sweep_id: str) -> EventStream:
        job = self._job(sweep_id)

        async def _events() -> AsyncIterator[str]:
            async for payload in job.stream_events():
                yield f"data: {json.dumps(payload, separators=(',', ':'))}\n\n"
            final = json.dumps(
                job.status_payload(include_results=False), separators=(",", ":")
            )
            yield f"event: done\ndata: {final}\n\n"

        return EventStream(events=_events())

    # -- sweep execution ---------------------------------------------------------------

    async def _run_sweep(self, job: SweepJob, cells: List[PlannedCell]) -> None:
        """Await every planned cell through the scheduler, in grid order.

        This is the service-side analogue of ``Runner.run``: the same plan,
        the same progress semantics (via ``_ProgressTracker``), but every
        cell is a concurrent awaitable, so store hits resolve immediately,
        duplicates join in-flight simulations from other sweeps, and cold
        cells coalesce into the scheduler's batches.
        """
        tracker = _ProgressTracker(job.record, len(cells))

        async def _cell(cell: PlannedCell) -> RunResult:
            result = await self.scheduler.run_cell(cell)
            tracker.report(result)
            return result

        tasks = [asyncio.ensure_future(_cell(cell)) for cell in cells]
        try:
            results = await asyncio.gather(*tasks)
            job.finish(SweepResult(spec=job.spec, results=list(results)))
        except BaseException as exc:
            for task in tasks:
                task.cancel()
            job.fail(exc)
            if isinstance(exc, asyncio.CancelledError):
                raise

    # -- lifecycle ---------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_connection(reader, writer, self.router, on_request=self._count_request)

    def _count_request(self, request: Request) -> None:
        self.requests_served += 1

    async def start(self, host: str = "127.0.0.1", port: int = 8023) -> asyncio.AbstractServer:
        """Bind and start accepting connections; returns the asyncio server.

        Pass ``port=0`` to bind an ephemeral port; read the actual address
        back from the returned server's ``sockets``.

        The simulation stack, which the rest of the library imports at its
        first use, is loaded here first: the scheduler's workers fork from
        this process, so each inherits it instead of importing (and
        compiling) it at its first cell.
        """
        import repro.dva.simulator  # noqa: F401
        import repro.refarch.simulator  # noqa: F401
        import repro.store.keys  # noqa: F401
        import repro.workloads.perfect_club  # noqa: F401

        return await asyncio.start_server(self._on_connection, host=host, port=port)

    async def aclose(self) -> None:
        """Cancel running sweeps and release the scheduler's worker pool."""
        for job in list(self.sweeps.values()):
            if job.task is not None and not job.task.done():
                job.task.cancel()
        await asyncio.gather(
            *(job.task for job in self.sweeps.values() if job.task is not None),
            return_exceptions=True,
        )
        self.scheduler.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8023,
    store: Union[ResultStore, str, Path, None] = None,
    jobs: int = 1,
    announce=print,
) -> None:
    """Run the service until SIGINT or SIGTERM (the ``repro serve`` entry point).

    The event loop handles both, whatever disposition the process inherited
    (a background job of a script starts with SIGINT ignored).
    """

    async def _main() -> None:
        service = ReproService(store=store, jobs=jobs)
        server = await service.start(host=host, port=port)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        try:
            for sock in server.sockets or ():
                bound_host, bound_port = sock.getsockname()[:2]
                announce(
                    f"serving on http://{bound_host}:{bound_port} "
                    f"(store: {service.store.root}, jobs: {jobs})"
                )
            await stop.wait()
            announce("shutting down")
        finally:
            server.close()
            await server.wait_closed()
            await service.aclose()

    asyncio.run(_main())


__all__ = ["ReproService", "SweepJob", "serve"]
