"""The simulation worker pool: forked processes, each on its own duplex pipe.

A worker answers each ``(cells, store_root)`` task with ``(True, results)``
or ``(False, exception)``, running it through
:func:`repro.core.experiment._run_program_cells` looked up on the module at
call time.  The pool has one entry point and no thread of its own:
:meth:`WorkerPool.submit` writes a task from the running event loop and
reads its reply in a ``loop.add_reader`` callback; the
:class:`~repro.core.scheduler.CellScheduler` is its one caller.  Workers
start one at a time, when a batch finds none idle; one that dies fails
its batch with a :class:`~repro.common.errors.SimulationError` and is
replaced the same way.
A worker ignores SIGINT and exits at its pipe's end of file, so it never
outlives its parent.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import stat
import sys
from collections import deque
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    import asyncio

#: One batch for a worker: a single program's cells and the store root.
Task = Tuple[Sequence, Optional[str]]


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork on Linux (workers start without re-importing), platform default elsewhere."""
    if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _drop_inherited_sockets(own: int) -> None:
    """Point every socket a forked worker inherited, but its own pipe, at /dev/null.

    A fork copies the parent's descriptors: the server's listening socket,
    its clients' connections, the parent ends of every worker's pipe.  A
    copy held here would keep the parent's ``close()`` from reaching the
    peer — a client would never see its connection end, a worker never see
    its pipe's end of file.  Each socket is replaced rather than closed, so
    its number is never reused under a stale object that might close it.
    Without ``/proc/self/fd`` (off Linux) nothing is dropped.
    """
    try:
        descriptors = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    for descriptor in descriptors:
        if descriptor in (own, devnull):
            continue
        try:
            if stat.S_ISSOCK(os.fstat(descriptor).st_mode):
                os.dup2(devnull, descriptor)
        except OSError:  # the listing's own descriptor, closed since
            pass
    os.close(devnull)


def _serve(connection: Connection) -> None:
    """A worker's whole life: answer tasks until the pipe reaches end of file.

    ``gc.freeze()`` moves every object the worker inherited from its parent
    into the permanent generation, so the generational collector, which
    stays on, only ever scans what the worker's own batches allocate and
    never writes to the inherited copy-on-write pages.  No batch forces a
    collection: a full one over the inherited heap took 5–7 ms, more than
    the costliest paper cell takes to simulate.  Traces are not built here:
    each worker builds them on first use, so workers never pay for programs
    they are not assigned.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _drop_inherited_sockets(connection.fileno())
    gc.freeze()
    from repro.core import experiment

    while True:
        try:
            task = connection.recv()
        except (EOFError, OSError):  # closed, or reset with a reply still unread
            return
        try:
            reply = (True, experiment._run_program_cells(task))
        except Exception as exc:
            reply = (False, exc)
        try:
            connection.send(reply)
        except OSError:  # the pool closed the pipe while this batch ran
            return
        except Exception as exc:  # an unpicklable reply
            connection.send((False, SimulationError(f"worker reply failed: {exc!r}")))


class _Worker:
    """One worker process and the parent end of its pipe."""

    def __init__(self, context: multiprocessing.context.BaseContext) -> None:
        self.connection, child_end = context.Pipe(duplex=True)
        self.process = context.Process(target=_serve, args=(child_end,), daemon=True)
        self.process.start()
        child_end.close()
        self.dead = False

    def send(self, task: Task) -> None:
        """Write ``task`` to the worker; fails if the worker has died."""
        try:
            self.connection.send(task)
        except OSError as exc:
            # The failed write's frames hold the pickled task's buffer; the
            # batch's future keeps this error, so it must not keep them too.
            exc.__traceback__ = None
            raise self._died(task) from None

    def receive(self, task: Task) -> list:
        """The task's results; re-raises its exception, or fails on a dead worker."""
        try:
            ok, value = self.connection.recv()
        except (EOFError, OSError):
            raise self._died(task) from None
        if not ok:
            raise value
        return value

    def _died(self, task: Task) -> SimulationError:
        self.dead = True
        self.process.join()
        return SimulationError(
            f"simulation worker {self.process.pid} exited with code "
            f"{self.process.exitcode} while running a {task[0][0].program} batch"
        )

    def close(self) -> None:
        self.connection.close()
        self.process.join()


class WorkerPool:
    """Up to ``size`` simulation workers, started on demand and reused.

    Tasks come in through :meth:`submit`, from one event loop at a time.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._context = _pool_context()
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        # Batches waiting for an idle worker, and each busy worker's loop and future.
        self._waiting: Deque[Tuple[Task, "asyncio.Future"]] = deque()
        self._reading: Dict[_Worker, Tuple["asyncio.AbstractEventLoop", "asyncio.Future"]] = {}

    def _acquire(self) -> Optional[_Worker]:
        if self._idle:
            return self._idle.pop()
        if len(self._workers) < self.size:
            worker = _Worker(self._context)
            self._workers.append(worker)
            return worker
        return None

    def _release(self, worker: _Worker) -> None:
        """Hand a worker back when its batch is over: idle, or dropped if dead."""
        if worker.dead:
            self._workers.remove(worker)
            worker.close()
        else:
            self._idle.append(worker)

    def _start(self, task: Task) -> Optional[_Worker]:
        """Write ``task`` to an idle worker; ``None`` when every worker is busy."""
        worker = self._acquire()
        if worker is not None:
            try:
                worker.send(task)
            except BaseException:
                self._release(worker)
                raise
        return worker

    # -- submitting tasks -------------------------------------------------------------

    def submit(self, task: Task) -> "asyncio.Future[list]":
        """Run ``task`` on a worker; a future of the running loop resolves with it."""
        import asyncio

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[list]" = loop.create_future()
        self._waiting.append((task, future))
        self._dispatch(loop)
        return future

    def _dispatch(self, loop: "asyncio.AbstractEventLoop") -> None:
        while self._waiting:
            task, future = self._waiting[0]
            if future.done():  # cancelled while it waited
                self._waiting.popleft()
                continue
            try:
                worker = self._start(task)
            except Exception as exc:
                self._waiting.popleft()
                future.set_exception(exc)
                continue
            if worker is None:
                return
            self._waiting.popleft()
            self._reading[worker] = (loop, future)
            loop.add_reader(worker.connection.fileno(), self._on_reply, worker, task)

    def _on_reply(self, worker: _Worker, task: Task) -> None:
        loop, future = self._reading.pop(worker)
        loop.remove_reader(worker.connection.fileno())
        try:
            results = worker.receive(task)
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)
        else:
            if not future.done():
                future.set_result(results)
        finally:
            self._release(worker)
        self._dispatch(loop)

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Cancel unanswered batches, close every pipe and join the workers."""
        for worker, (loop, future) in self._reading.items():
            loop.remove_reader(worker.connection.fileno())
            future.cancel()
        self._reading.clear()
        for _task, future in self._waiting:
            future.cancel()
        self._waiting.clear()
        for worker in self._workers:
            worker.close()
        self._workers.clear()
        self._idle.clear()


__all__ = ["WorkerPool"]
