"""The sweep service: ``repro serve`` — a long-running daemon over the store.

This package turns the content-addressed result store into a multi-client
system.  A :class:`ReproService` accepts JSON run/sweep requests over a
minimal stdlib-only asyncio HTTP layer, answers warm cells straight from the
:class:`~repro.store.ResultStore` without touching the worker path,
deduplicates identical in-flight cells across clients (single-flight
futures keyed by :func:`~repro.store.cell_key`), hands cold cells in
batches to worker processes straight from the event loop, and streams
per-cell progress as server-sent events.  The cell path itself is the
library's: :class:`~repro.core.scheduler.CellScheduler`, the same
scheduler a pooled :meth:`~repro.core.experiment.Runner.run` awaits its
cells through.

Layers, bottom-up:

* :mod:`repro.service.http` — request parsing, routing, JSON and
  event-stream responses over ``asyncio`` streams (no new dependencies).
* :mod:`repro.service.protocol` — the JSON wire shapes: request bodies into
  validated :class:`~repro.core.experiment.SweepSpec` grids (a run is a one-cell grid),
  results and progress events back out.
* :mod:`repro.service.server` — :class:`ReproService` (routes + sweep jobs)
  and the blocking :func:`serve` entry point behind ``repro serve``.
"""

from repro.service.http import HttpError, Request, Response, Router
from repro.service.protocol import (
    ProtocolError,
    parse_run_request,
    parse_sweep_request,
)
from repro.service.server import ReproService, SweepJob, serve

__all__ = [
    "HttpError",
    "ProtocolError",
    "ReproService",
    "Request",
    "Response",
    "Router",
    "SweepJob",
    "parse_run_request",
    "parse_sweep_request",
    "serve",
]
