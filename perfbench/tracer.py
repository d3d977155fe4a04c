"""In-memory span tracer wrapped around the public entry points of each layer.

Nothing under ``src/`` knows about tracing: :func:`install` replaces the
layer entry points (methods on their classes, and every module-level name a
``repro`` module imported directly, such as ``cell_key`` and
``load_program`` in ``repro.core.experiment``) with wrappers that record a
span — name, start, end, parent span, cell id — and a few work counts.

Spans stay in memory.  Forked pool workers start with an empty buffer and
append theirs to ``<span_dir>/<pid>.jsonl`` after every batch they run; a
traced server process does the same when it shuts down.  A layer's *self
time* is its span's duration minus the part of that interval its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One recorded span: [id, name, start, end, parent id or None, cell id or None,
#: work count].  A list, not an object, so the hot wrappers stay cheap and the
#: buffer dumps straight to JSON.
Span = list

ID, NAME, START, END, PARENT, CELL, COUNT = range(7)


class Tracer:
    """Collects spans from any number of threads of one process."""

    def __init__(self, span_dir: Optional[Path] = None) -> None:
        self.span_dir = span_dir
        #: Off, every wrapper calls straight through (the untraced passes).
        self.enabled = True
        self.reset()

    def reset(self) -> None:
        """Forget every span (also run in a freshly forked child)."""
        self.spans: List[Span] = []
        #: store key -> cell id, so store reads join the spans of their cell.
        self.cells: Dict[str, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, cell: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if cell is None and parent is not None:
            cell = parent[CELL]
        span = [
            next(self._ids),
            name,
            time.perf_counter(),
            None,
            parent[ID] if parent is not None else None,
            cell,
            0,
        ]
        stack.append(span)
        return span

    def end(self, span: Span, count: int = 0) -> None:
        span[END] = time.perf_counter()
        span[COUNT] = count
        self._stack().pop()
        self.spans.append(span)

    def drain(self) -> List[Span]:
        """Take every finished span recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    def flush(self) -> None:
        """Append this process's spans to its file under :attr:`span_dir`."""
        if self.span_dir is None:
            return
        spans = self.drain()
        if not spans:
            return
        with (self.span_dir / f"{os.getpid()}.jsonl").open("a") as handle:
            handle.write(json.dumps([os.getpid(), spans]) + "\n")


def load_span_files(span_dir: Path) -> List[Span]:
    """Read back (and delete) every span file other processes wrote.

    Span ids are only unique within one process, so each id is re-keyed as
    ``(pid, id)`` to keep parent links intact across files.
    """
    spans: List[Span] = []
    for path in sorted(span_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            pid, batch = json.loads(line)
            for span in batch:
                span[ID] = (pid, span[ID])
                if span[PARENT] is not None:
                    span[PARENT] = (pid, span[PARENT])
                spans.append(span)
        path.unlink()
    return spans


def write_spans(spans: Sequence[Span], path: Path) -> None:
    """Write ``spans`` out as JSON lines, one named-field object per span."""
    fields = ("id", "name", "start", "end", "parent", "cell", "count")
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[object, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping children
    (several threads under one parent) are merged first, so the result is
    never negative and never counts a covered instant twice.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result: Dict[object, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span[ID], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[ID]] = (end - start) - covered
    return result


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, summed duration, calls and work count."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(
            span[NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0}
        )
        entry["self_s"] += selfs[span[ID]]
        entry["total_s"] += span[END] - span[START]
        entry["calls"] += 1
        entry["count"] += span[COUNT]
    return totals


# -- instrumentation -----------------------------------------------------------------


def _wrap(
    tracer: Tracer,
    function: Callable,
    name: str,
    cell: Optional[Callable] = None,
    count: Optional[Callable] = None,
) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return function(*args, **kwargs)
        span = tracer.begin(name, cell(*args, **kwargs) if cell is not None else None)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            tracer.end(span, count(result, *args, **kwargs) if count is not None else 0)

    traced.__wrapped_by_perfbench__ = True
    return traced


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that *is* ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _patch_method(tracer: Tracer, owner: type, attribute: str, name: str, **hooks) -> None:
    raw = owner.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(_wrap(tracer, raw.__func__, name, **hooks)))
    else:
        setattr(owner, attribute, _wrap(tracer, raw, name, **hooks))


def _patch_function(tracer: Tracer, original: Callable, name: str) -> None:
    _replace_everywhere(original, _wrap(tracer, original, name))


def _cell(program, latency, label) -> str:
    """The cell id every span of one cell carries: ``PROGRAM/latency/label``."""
    return f"{str(program).upper()}/{int(latency)}/{label}"


def _cell_of_result(result) -> str:
    return _cell(result.program, result.latency, result.architecture)


def install(span_dir: Optional[Path] = None) -> Tracer:
    """Wrap every layer's entry points in this process; returns the tracer.

    Span names are the layer metric prefixes of the ledger.  Forked children
    (pool workers) reset the buffer and flush to ``span_dir`` after each
    batch, so their spans survive the worker.
    """
    import repro.core.cli  # noqa: F401  (load every layer before rebinding names)
    import repro.service  # noqa: F401
    from repro.core import experiment
    from repro.core.registry import SpecArchitecture
    from repro.core.result import RunResult
    from repro.dva.simulator import DecoupledSimulator
    from repro.refarch.simulator import ReferenceSimulator
    from repro.store import keys
    from repro.store.store import ResultStore
    from repro.workloads import perfect_club
    from repro.workloads.program_model import ProgramModel

    if getattr(ResultStore.get, "__wrapped_by_perfbench__", False):
        raise RuntimeError("perfbench tracing is already installed in this process")
    tracer = Tracer(span_dir)
    os.register_at_fork(after_in_child=tracer.reset)

    def trace_length(trace, *args, **kwargs):
        return len(trace) if trace is not None else 0

    def instructions(result, *args, **kwargs):
        return getattr(result, "instructions", 0) if result is not None else 0

    _patch_method(tracer, ProgramModel, "build_trace", "trace.build", count=trace_length)
    _patch_method(
        tracer,
        SpecArchitecture,
        "simulate",
        "registry.simulate",
        cell=lambda self, trace, config: _cell(trace.name, config.latency, self.name),
    )
    _patch_method(tracer, ReferenceSimulator, "run", "refarch.run", count=instructions)
    _patch_method(tracer, DecoupledSimulator, "run", "dva.run", count=instructions)
    _patch_method(tracer, RunResult, "from_reference", "result.package")
    _patch_method(tracer, RunResult, "from_decoupled", "result.package")
    _patch_method(tracer, RunResult, "from_json", "result.from_json")
    _patch_method(
        tracer,
        ResultStore,
        "get",
        "store.get",
        cell=lambda self, key: tracer.cells.get(key),
        count=lambda result, *args: int(result is not None),
    )
    _patch_method(
        tracer,
        ResultStore,
        "put",
        "store.put",
        cell=lambda self, key, result, *args, **kwargs: _cell_of_result(result),
    )
    _patch_method(
        tracer,
        ResultStore,
        "update_index",
        "store.update_index",
        count=lambda merged, *args, **kwargs: int(merged is False),
    )
    _patch_method(tracer, experiment.Runner, "run", "runner.run")
    _patch_method(tracer, experiment.Runner, "run_batch", "runner.run_batch")
    traced_key = _wrap(
        tracer,
        keys.cell_key,
        "store.cell_key",
        cell=lambda program, scale, latency, simulator, config: _cell(
            program, latency, simulator.name
        ),
    )

    @functools.wraps(keys.cell_key)
    def cell_key(program, scale, latency, simulator, config):
        key = traced_key(program, scale, latency, simulator, config)
        if tracer.enabled and key is not None:
            tracer.cells[key] = _cell(program, latency, simulator.name)
        return key

    _replace_everywhere(keys.cell_key, cell_key)
    _patch_function(tracer, perfect_club.load_program, "workloads.load_program")
    _patch_function(tracer, experiment.resolve_sweep_machines, "runner.resolve")
    _patch_function(tracer, experiment.estimate_cell_cost, "runner.cost_model")

    batch = _wrap(tracer, experiment._run_program_cells, "pool.batch")

    @functools.wraps(experiment._run_program_cells)
    def run_program_cells(task):
        try:
            return batch(task)
        finally:
            if multiprocessing.parent_process() is not None:
                tracer.flush()

    # Pickled by reference: pool workers look the name up in the module and
    # find this wrapper, so the worker side is traced as well.
    experiment._run_program_cells = run_program_cells
    return tracer
