"""Declarative experiments: sweep grids and the runner that executes them.

The paper's central experiment is a grid — six Perfect Club programs × memory
latencies {1, 10, 50, 100} × machines {REF, DVA} (§4–§7).  A
:class:`SweepSpec` declares such a grid and a :class:`Runner` executes every
cell either serially or across a ``multiprocessing`` pool.  A cell is fully
described by its program, scale, latency and machine spec.

Sweeps are not limited to the latency axis: any
:class:`~repro.core.machine.MachineSpec` field can be an axis too, so
``SweepSpec(programs=..., axes={"lanes": (1, 2, 4), "ports": (1, 2),
"latency": (1, 50, 100)})`` crosses every machine parameter with every
latency for every architecture in the grid.  Each cell's machine-axis values
are set on the architecture's spec before simulation, the resolved
spec's canonical string becomes the cell's architecture label (``"dva"``,
``"dva@lanes=2"``, ...), and the resolved spec itself travels with the
:class:`~repro.core.result.RunResult` as provenance.

Trace generation is the repeated cost across cells (every latency and
architecture of one program re-simulates the same trace), so the runner builds
each program's trace at most once per process: the serial path keeps a
per-runner :class:`TraceCache`, and pool workers keep a process-local cache
that is seeded copy-on-write with whatever the parent had already built when
the pool forked and fills lazily otherwise — never per cell.  Every path
runs with the generational garbage collector on and never forces a
collection: a forced full collection cost more than the costliest cell
simulates in.  Pool workers freeze the heap they inherit when they fork, so
automatic collections never scan it or touch its copy-on-write pages.

Across *processes and days*, the repeated cost is simulation itself, and a
:class:`~repro.store.ResultStore` eliminates it: give the runner a store and
it consults it before dispatching cells (hits come back as results marked
``cached=True``, their programs' traces are never even built), simulates only
the misses, and writes each miss back the moment it completes — in the
worker, not at the end of the sweep — so a killed sweep resumes with zero
re-simulated cells and an identical warm re-run is pure cache hits.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import multiprocessing.pool
import os
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.errors import ConfigurationError, WorkloadError
from repro.core.config import RunConfig
from repro.core.machine import (
    LATENCY_AXIS,
    MachineSpec,
    axis_combinations,
    canonical_axis_name,
    parse_axis_values,
)
from repro.core.registry import SpecArchitecture, resolve_architecture
from repro.core.result import RunResult
from repro.store import ResultStore, StoreEntry, cell_key
from repro.trace.columns import Trace
from repro.workloads.perfect_club import load_program
from repro.workloads.program_model import check_scale

Overrides = Tuple[Tuple[str, object], ...]
Axes = Tuple[Tuple[str, Tuple[object, ...]], ...]

#: One dispatchable unit of work: (latency, resolved machine, cache key or
#: ``None`` when no store is in play).
CellTask = Tuple[int, SpecArchitecture, Optional[str]]

#: Trace lengths, memoized per (program, scale): counting one compiles the
#: program's kernels (about 0.5 ms), once per process.
_LENGTH_CACHE: Dict[Tuple[str, float], int] = {}


def estimate_cell_cost(program: str, scale: float) -> int:
    """A unitless estimate of one cell's simulation cost, for scheduling.

    Cost is the program's exact dynamic trace length
    (:meth:`~repro.workloads.program_model.ProgramModel.trace_length`); the
    cell's latency and machine are not part of it.  The timing core does
    timestamp arithmetic per simulated instruction whatever the memory
    latency: measured on a 2-CPU host (min of 5, simulate and package),
    every latency-100 cell of the golden grid took 0.98-1.15x the time of
    its latency-1 cell.  A cell took 1.0-5.9 ms, 0.15-1.71 ms per 1k trace
    instructions (1,776-8,879).  The issue loops skip the invocations that
    repeat a steady state (73-89% of a program's rows) and packaging sweeps
    a skipped run as one repeat, so time follows the rows left to simulate,
    1.3-6.7 ms per 1k, and length ranks cells only loosely: TRFD, twice
    DYFESM's length, costs less on the DVA (3.7 vs 4.7 ms at latency 50),
    and a scale-16 BDNA DVA cell costs about 1.3x its scale-1 cell for 16x
    the length.
    Used to put the costliest program first — in the
    :class:`Runner`'s pool chunks and the sweep service's batch flush.
    Unknown programs cost 1: scheduling must never fail a cell that
    validation has already admitted.
    """
    key = (program.upper(), float(scale))
    length = _LENGTH_CACHE.get(key)
    if length is None:
        try:
            length = load_program(program).trace_length(scale)
        except WorkloadError:
            length = 1
        _LENGTH_CACHE[key] = length
    return length


@dataclass(frozen=True)
class CellProgress:
    """One progress event of a running sweep: a cell's result became available.

    ``done``/``total`` count grid cells; ``cached``/``simulated`` split the
    finished cells by whether the result store answered them.  Serial sweeps
    report cell by cell; parallel sweeps report each worker batch as it
    returns.
    """

    done: int
    total: int
    cached: int
    simulated: int
    program: str
    latency: int
    architecture: str
    from_store: bool


#: A sweep progress callback, called once per finished cell.
ProgressCallback = Callable[[CellProgress], None]


class _ProgressTracker:
    """Counts finished cells and fans events out to the user's callback.

    The one progress implementation: the :class:`Runner` reports cells as it
    finishes them, and the sweep service as its scheduler answers them.
    """

    def __init__(self, callback: Optional[ProgressCallback], total: int) -> None:
        self.callback = callback
        self.total = total
        self.done = 0
        self.cached = 0
        self.simulated = 0

    def report(self, result: RunResult) -> None:
        self.done += 1
        if result.cached:
            self.cached += 1
        else:
            self.simulated += 1
        if self.callback is not None:
            self.callback(
                CellProgress(
                    done=self.done,
                    total=self.total,
                    cached=self.cached,
                    simulated=self.simulated,
                    program=result.program,
                    latency=result.latency,
                    architecture=result.architecture,
                    from_store=result.cached,
                )
            )


def _split_spec_list(text: str) -> Tuple[str, ...]:
    """Split a comma-separated architecture list that may contain inline specs.

    A bare comma separates entries, but a token containing ``=`` (and no
    ``@`` of its own — that would start the next spec) is an assignment
    belonging to the previous entry's ``@`` clause, so
    ``"ref,dva@lanes=2,ports=2"`` is two entries and
    ``"dva@bypass=off,ref@lanes=2"`` is two as well.
    """
    entries: List[str] = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        if "=" in token and "@" not in token and entries and "@" in entries[-1]:
            entries[-1] += "," + token
        else:
            entries.append(token)
    return tuple(entries)


@dataclass(frozen=True)
class SweepSpec:
    """A (programs × latencies × machine axes × architectures) grid.

    Program names are normalized to the registry's upper-case form and
    architecture names to lower case, so specs parsed from a command line
    compare equal to specs built in code.  ``architectures`` entries may be
    registry names or inline machine-spec strings (``"dva@lanes=2"``).

    ``axes`` declares extra sweep dimensions over
    :class:`~repro.core.machine.MachineSpec` fields, as a mapping (or pair
    sequence) of axis name → values, e.g. ``{"lanes": (1, 2, 4), "ports":
    (1, 2)}``.  A ``"latency"`` axis is folded into :attr:`latencies` (it is
    the one axis that is not a machine field), so it may be given either way
    but not both.
    """

    programs: Tuple[str, ...]
    latencies: Tuple[int, ...] = ()
    architectures: Tuple[str, ...] = ("ref", "dva")
    scale: float = 1.0
    axes: Axes = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "programs", tuple(str(p).upper() for p in self.programs)
        )
        object.__setattr__(
            self, "architectures", tuple(str(a).lower() for a in self.architectures)
        )
        latencies = tuple(int(lat) for lat in self.latencies)
        axes: List[Tuple[str, Tuple[object, ...]]] = []
        axis_items = (
            self.axes.items() if isinstance(self.axes, Mapping) else self.axes
        )
        for name, values in axis_items:
            if isinstance(values, (int, bool, str)):
                values = (values,)
            values = parse_axis_values(name, values)
            key = canonical_axis_name(name)
            if key == LATENCY_AXIS:
                if latencies:
                    raise ConfigurationError(
                        "latencies given twice (both the 'latencies' field "
                        "and a 'latency' axis)"
                    )
                latencies = tuple(int(v) for v in values)  # type: ignore[arg-type]
                continue
            if any(key == existing for existing, _ in axes):
                raise ConfigurationError(f"sweep axis {key!r} declared twice")
            axes.append((key, values))
        object.__setattr__(self, "latencies", latencies)
        object.__setattr__(self, "axes", tuple(axes))
        if not self.programs:
            raise ConfigurationError("a sweep needs at least one program")
        if not self.latencies:
            raise ConfigurationError("a sweep needs at least one memory latency")
        if not self.architectures:
            raise ConfigurationError("a sweep needs at least one architecture")
        if any(latency < 0 for latency in self.latencies):
            raise ConfigurationError("memory latencies cannot be negative")
        for axis, values in (("programs", self.programs), ("latencies", self.latencies)):
            if len(set(values)) != len(values):
                raise ConfigurationError(f"sweep {axis} repeat a value")
        try:
            check_scale(self.scale)
        except WorkloadError as exc:
            raise ConfigurationError(str(exc)) from None

    def to_json(self) -> Dict[str, object]:
        """The grid as JSON: a sweep result's ``spec`` block and the service's.

        The service's sweep request reads the same shape back.
        """
        return {
            "programs": list(self.programs),
            "latencies": list(self.latencies),
            "architectures": list(self.architectures),
            "scale": self.scale,
            "axes": [[name, list(values)] for name, values in self.axes],
        }

    @classmethod
    def from_strings(
        cls,
        programs: str,
        latencies: str,
        architectures: str = "ref,dva",
        scale: float = 1.0,
        axes: Sequence[str] = (),
    ) -> "SweepSpec":
        """Parse comma-separated lists, as given on the command line.

        Each ``axes`` entry reads ``name=v1,v2,...`` (e.g. ``"lanes=1,2,4"``);
        ``architectures`` may mix registry names and inline specs, with the
        assignments of an inline spec's ``@`` clause kept together.
        """
        try:
            parsed_latencies = tuple(
                int(s) for s in (s.strip() for s in latencies.split(",")) if s
            )
        except ValueError as exc:
            raise ConfigurationError(
                f"latencies must be integers, got {latencies!r}"
            ) from exc
        parsed_axes: List[Tuple[str, Tuple[object, ...]]] = []
        for entry in axes:
            name, eq, values = entry.partition("=")
            if not eq or not name.strip():
                raise ConfigurationError(
                    f"malformed sweep axis {entry!r} (expected name=v1,v2,...)"
                )
            parsed_axes.append(
                (name.strip(), tuple(v.strip() for v in values.split(",") if v.strip()))
            )
        return cls(
            programs=tuple(p for p in (s.strip() for s in programs.split(",")) if p),
            latencies=parsed_latencies,
            architectures=_split_spec_list(architectures),
            scale=scale,
            axes=tuple(parsed_axes),
        )

    def axis_combinations(self) -> List[Overrides]:
        """Every machine-axis combination, axis-major (``[()]`` with no axes)."""
        return axis_combinations(self.axes)  # type: ignore[arg-type]

    def __len__(self) -> int:
        cells = len(self.programs) * len(self.latencies) * len(self.architectures)
        for _, values in self.axes:
            cells *= len(values)
        return cells


def resolve_sweep_machines(spec: SweepSpec) -> List[SpecArchitecture]:
    """Check ``spec``'s programs and resolve every (axis-combo × architecture).

    Unknown programs, unknown architectures, and distinct grid cells that
    collapse onto the same machine label all fail here, before any
    simulation: :func:`plan_sweep` calls this first, and the sweep service
    calls it at request admission so a bad sweep is rejected with a clean
    error instead of dying mid-run.
    The returned machines are axis-combo-major, architecture-minor: the
    order each (program, latency) group of :func:`plan_sweep` runs them in.
    """
    for program in spec.programs:
        load_program(program)
    machines: List[SpecArchitecture] = []
    seen_labels: Dict[str, Tuple[str, Overrides]] = {}
    for combo in spec.axis_combinations():
        for arch in spec.architectures:
            simulator = resolve_architecture(arch, combo)
            previous = seen_labels.get(simulator.name)
            if previous is not None:
                raise ConfigurationError(
                    f"sweep cells {previous!r} and {(arch, combo)!r} both "
                    f"resolve to machine {simulator.name!r}; every cell "
                    "must be a distinct machine"
                )
            seen_labels[simulator.name] = (arch, combo)
            machines.append(simulator)
    return machines


@dataclass
class PlannedCell:
    """One grid cell on its way to a result.

    ``key`` is the cell's store key (``None`` without a store).  ``result``
    is set at planning time for a store hit and by whoever executes the cell
    otherwise, so a cell still holding ``None`` is a task to run.
    """

    program: str
    latency: int
    simulator: SpecArchitecture
    key: Optional[str]
    result: Optional[RunResult] = None

    @property
    def task(self) -> CellTask:
        return (self.latency, self.simulator, self.key)


def plan_sweep(spec: SweepSpec, store: Optional[ResultStore]) -> List[PlannedCell]:
    """Every cell of ``spec`` in grid order, each either a store hit or a task.

    Grid order is program-major, then latency, then axis combination, then
    architecture; it is the order every runner executes and reports in.
    Validation (:func:`resolve_sweep_machines`) runs first, so a bad spec
    fails before any key is computed.  With a store, each cell's key is
    computed and probed; hits come back holding their ``cached=True``
    result.  The :class:`Runner` starts from this plan.
    """
    machines = resolve_sweep_machines(spec)
    cells: List[PlannedCell] = []
    for program in spec.programs:
        for latency in spec.latencies:
            for simulator in machines:
                key = None
                hit = None
                if store is not None:
                    key = cell_key(
                        program, spec.scale, latency, simulator, RunConfig(latency=latency)
                    )
                    hit = store.get(key)
                cells.append(PlannedCell(program, latency, simulator, key, hit))
    return cells


class TraceCache:
    """Builds each (program, scale) trace at most once.

    Cached traces are columnar (:class:`~repro.trace.columns.Trace`), so what pool
    workers inherit copy-on-write at fork time is a handful of flat arrays
    plus the small static-instruction table — not millions of per-record
    Python objects whose refcount updates would unshare the pages — which
    keeps large ``--scale`` sweeps in flat memory across the whole pool.
    """

    def __init__(self) -> None:
        self._traces: Dict[Tuple[str, float], Trace] = {}

    def get(self, program: str, scale: float) -> Trace:
        """The (program, scale) trace, built on first request and then reused."""
        key = (program.upper(), scale)
        trace = self._traces.get(key)
        if trace is None:
            trace = load_program(program).build_trace(scale=scale)
            self._traces[key] = trace
        return trace

    def entries(self) -> Dict[Tuple[str, float], Trace]:
        """A snapshot of everything cached so far."""
        return dict(self._traces)

    def seed(self, entries: Dict[Tuple[str, float], Trace]) -> None:
        """Adopt already-built traces (used to hand a cache across processes)."""
        self._traces.update(entries)

    def clear(self) -> None:
        """Drop every cached trace (the next ``get`` rebuilds)."""
        self._traces.clear()

    def __len__(self) -> int:
        return len(self._traces)


def _run_cells(
    trace: Trace,
    tasks: Sequence[CellTask],
    store: Optional[ResultStore],
    scale: float,
    on_result: Optional[Callable[[RunResult], None]] = None,
) -> List[RunResult]:
    """Sweep one trace across its cells, persisting each as it completes.

    The one cell executor: the :class:`Runner`'s serial loop and pool
    workers and the service's batches all simulate here.
    Each result is stamped with its store key before it is written.
    Write-back happens per cell, not per batch, so a simulation process
    killed mid-batch leaves every already-finished cell in the store.
    ``on_result`` fires per cell, after the store write (serial progress
    reporting; pool workers run without it).
    """
    results: List[RunResult] = []
    for latency, simulator, key in tasks:
        result = simulator.simulate(trace, RunConfig(latency=latency))
        if store is not None:
            result = replace(result, store_key=key)
            store.put(key, result, scale=scale)
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results


# Per-process trace cache used by pool workers.  The parent seeds it right
# before the pool forks, so fork-started workers inherit the parent's traces
# copy-on-write; anything missing (spawn start method, or sweeps run after
# the pool was created) is built once per worker and cached for the pool's
# whole lifetime.
_WORKER_CACHE = TraceCache()


def _worker_init() -> None:
    """Initialize one pool worker: freeze the heap it inherited.

    ``gc.freeze()`` moves every object the worker inherited from its parent
    into the permanent generation, so the generational collector, which
    stays on, only ever scans what the worker's own batches allocate and
    never writes to the inherited copy-on-write pages.  No batch forces a
    collection: a full one over the inherited heap took 5–7 ms, more than
    the costliest paper cell takes to simulate.  Traces are not built here:
    each worker builds (or, under fork, inherits) them on first use, so
    workers never pay for programs they are not assigned.
    """
    gc.freeze()


def _run_program_cells(
    task: Tuple[str, float, Sequence[CellTask], Optional[str]]
) -> List[RunResult]:
    """Worker: sweep one batch of a program's cells over its cached trace.

    Module-level so ``multiprocessing`` can pickle it under both the fork and
    spawn start methods.  The task carries the resolved
    :class:`~repro.core.registry.SpecArchitecture` records rather than
    registry names, so runtime registrations work in workers too.  When the
    parent runs with a result store, the task carries the store *root* (a
    plain path) and the worker opens its own handle: constructing a
    :class:`~repro.store.ResultStore` touches no files, and each completed
    cell is written back immediately so killed sweeps keep their progress.
    """
    program, scale, cell_tasks, store_root = task
    store = ResultStore(store_root) if store_root is not None else None
    trace = _WORKER_CACHE.get(program, scale)
    return _run_cells(trace, cell_tasks, store, scale)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork on Linux (traces inherit copy-on-write), platform default elsewhere."""
    if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _available_parallelism() -> int:
    """CPUs this process may actually run on (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


class Runner:
    """Executes sweep grids, serially or across a persistent process pool.

    ``jobs`` is a ceiling, not a demand: the runner never uses more workers
    than the machine can actually run in parallel, so asking for ``jobs=2``
    on a one-CPU host degrades gracefully to the in-process serial path
    instead of paying pool and scheduling overhead for no speedup.  A sweep
    with a single cell to simulate always runs in-process.

    The serial path runs in-process against a shared :class:`TraceCache`.
    The parallel path distributes batches of cells over a ``multiprocessing``
    pool that is created on the first parallel run and reused for the
    runner's lifetime, so repeated sweeps pay for worker startup and trace
    building once: fork-started workers inherit whatever traces the parent
    had already built, and build anything else lazily, once per worker.
    When the grid has fewer programs than workers, each program's cells are
    split into chunks so every worker gets work.  Both paths produce
    identical results in identical order — the simulators are deterministic
    and each cell is independent — which the test suite asserts.  Neither
    path pauses the garbage collector or forces a collection; pool workers
    freeze the heap they inherit (:func:`_worker_init`).

    With a :class:`~repro.store.ResultStore` attached (``store=`` — an
    instance, or a path to open one at), the runner becomes *incremental*:
    store hits are loaded instead of simulated (their traces are not even
    built), misses are written back cell-by-cell as they complete, and the
    hit/miss split of the last run is reported on the returned
    :class:`SweepResult` via its per-result ``cached`` flags.

    The pool is released by :meth:`close`, by using the runner as a context
    manager, or at garbage collection.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Union[ResultStore, str, Path, None] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("runner needs at least one job")
        self.jobs = jobs
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.trace_cache = TraceCache()
        self._pool: Optional[multiprocessing.pool.Pool] = None
        # The sweep service calls run_batch from several executor threads at
        # once; pool creation and first-touch trace builds are the two
        # critical sections (the pool's own methods are thread-safe).
        self._pool_lock = threading.Lock()
        self._trace_lock = threading.Lock()

    @property
    def effective_jobs(self) -> int:
        """Workers the runner will actually use for a parallel sweep."""
        return min(self.jobs, _available_parallelism())

    def run(
        self,
        spec: SweepSpec,
        progress: Optional[ProgressCallback] = None,
    ) -> "SweepResult":
        """Execute every cell of ``spec`` and collect the results.

        With a store attached, only cells the store cannot answer are
        simulated; everything else is loaded and marked ``cached=True``.
        Results come back in grid order either way.

        ``progress`` receives one :class:`CellProgress` per finished cell
        (store hits first, then simulated cells — cell by cell when serial,
        batch by batch when parallel), so long sweeps are observable.
        """
        cells = plan_sweep(spec, self.store)
        tracker = _ProgressTracker(progress, len(cells))
        # Tasks grouped per program, in grid order: each group shares a trace.
        batches: Dict[str, List[PlannedCell]] = {}
        for cell in cells:
            if cell.result is not None:
                tracker.report(cell.result)
            else:
                batches.setdefault(cell.program, []).append(cell)
        pending = sum(len(batch) for batch in batches.values())
        if pending == 1 or (pending and self.effective_jobs == 1):
            self._run_serial(spec.scale, batches, tracker)
        elif pending:
            self._run_parallel(spec.scale, batches, tracker)

        results = [cell.result for cell in cells]
        if self.store is not None:
            # Workers (or the serial loop) wrote the objects; merge this
            # sweep's cells into the advisory index once, in the parent —
            # O(cells written), never a full store scan.
            self.store.update_index(results, scale=spec.scale)
        return SweepResult(spec=spec, results=results)  # type: ignore[arg-type]

    def _run_serial(
        self,
        scale: float,
        batches: Mapping[str, Sequence[PlannedCell]],
        tracker: _ProgressTracker,
    ) -> None:
        """Run every batch in-process, filling in each cell's result.

        The caller's garbage-collector state is left alone, whatever
        ``jobs`` asked for: the generational collector costs little next to
        a forced collection per batch, which cost more than a cell.  Only
        programs that actually have tasks get their traces built.
        """
        for program, cells in batches.items():
            trace = self.trace_cache.get(program, scale)
            results = _run_cells(
                trace, [cell.task for cell in cells], self.store, scale,
                on_result=tracker.report,
            )
            for cell, result in zip(cells, results):
                cell.result = result

    def _run_parallel(
        self,
        scale: float,
        batches: Mapping[str, Sequence[PlannedCell]],
        tracker: _ProgressTracker,
    ) -> None:
        """Distribute the batches over the worker pool, costliest chunk first.

        Each program's cells are dealt round-robin into per-worker chunks
        (every cell of a program costs the same, see
        :func:`estimate_cell_cost`), and the chunks are submitted costliest
        first so the pool starts the longest work immediately.  Each chunk's
        results land back on its own cells as the chunk returns, and are
        reported then.
        """
        store_root = str(self.store.root) if self.store is not None else None
        per_program = -(-self.effective_jobs // len(batches))
        chunks = [
            cells[offset::per_program]
            for cells in batches.values()
            for offset in range(min(per_program, len(cells)))
        ]
        chunks.sort(key=lambda chunk: -len(chunk) * estimate_cell_cost(chunk[0].program, scale))
        tasks = [
            (chunk[0].program, scale, tuple(cell.task for cell in chunk), store_root)
            for chunk in chunks
        ]
        pool = self._ensure_pool()
        for chunk, results in zip(chunks, pool.imap(_run_program_cells, tasks)):
            for cell, result in zip(chunk, results):
                cell.result = result
                tracker.report(result)

    def run_batch(
        self,
        program: str,
        scale: float,
        tasks: Sequence[CellTask],
    ) -> List[RunResult]:
        """Execute one batch of a single program's cells, off the grid path.

        This is the dispatch surface the sweep service's scheduler uses for
        cold cells: with more than one effective job the batch is applied to
        the persistent worker pool (safe from several threads at once — the
        pool serializes its task queue internally), otherwise it is
        simulated in the calling thread against the runner's trace cache.
        Store write-back matches the sweep path — per cell, in the process
        that simulated it; merging the advisory index is the caller's job,
        as it is for :meth:`run`.
        """
        tasks = tuple(tasks)
        if not tasks:
            return []
        if self.effective_jobs > 1:
            store_root = str(self.store.root) if self.store is not None else None
            pool = self._ensure_pool()
            return pool.apply(
                _run_program_cells, ((program, scale, tasks, store_root),)
            )
        with self._trace_lock:
            trace = self.trace_cache.get(program, scale)
        return _run_cells(trace, tasks, self.store, scale)

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        """The persistent worker pool, created on first use (thread-safe).

        Traces the parent has already built (e.g. by an earlier serial run of
        this runner) are exposed to fork-started workers copy-on-write; every
        other trace is built lazily, once per worker that needs it, so a cold
        multi-program sweep builds its traces in parallel across workers.
        """
        with self._pool_lock:
            if self._pool is None:
                _WORKER_CACHE.seed(self.trace_cache.entries())
                try:
                    self._pool = _pool_context().Pool(
                        processes=self.effective_jobs, initializer=_worker_init
                    )
                finally:
                    # The parent-side copies have served their purpose (the
                    # pool has forked); worker-side caches live in the
                    # workers.
                    _WORKER_CACHE.clear()
            return self._pool

    def close(self) -> None:
        """Release the worker pool (idempotent; the runner stays usable)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass


@dataclass
class SweepResult:
    """All cell results of one executed sweep, in grid order.

    Construction builds a ``cell_key → result`` index once, so :meth:`get`
    is O(1) per lookup instead of a linear scan, and a grid that produced
    the same (program, latency, architecture-label) twice — which would make
    lookups ambiguous — is rejected immediately.  The index assumes
    :attr:`results` is not mutated afterwards.
    """

    spec: SweepSpec
    results: List[RunResult]

    def __post_init__(self) -> None:
        index: Dict[tuple, RunResult] = {}
        for result in self.results:
            key = result.cell_key
            if key in index:
                raise ConfigurationError(
                    f"sweep contains duplicate cell {key!r}"
                )
            index[key] = result
        self._index = index

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def cached_count(self) -> int:
        """How many cells were answered by the result store (0 without one)."""
        return sum(1 for result in self.results if result.cached)

    @property
    def simulated_count(self) -> int:
        """How many cells were actually simulated in this run."""
        return len(self.results) - self.cached_count

    def get(self, program: str, latency: int, architecture_name: str) -> RunResult:
        """The result of one cell; raises when the cell was not in the grid.

        ``architecture_name`` is the cell's label: the architecture name for
        plain grid cells, or the canonical spec string (``"dva@lanes=2"``)
        for machine-axis cells.
        """
        key = (program.upper(), int(latency), architecture_name.lower())
        try:
            return self._index[key]
        except KeyError:
            raise ConfigurationError(f"sweep has no cell {key!r}") from None

    def architecture_labels(self) -> List[str]:
        """Distinct architecture labels present in the results, in grid order."""
        labels: List[str] = []
        for result in self.results:
            if result.architecture not in labels:
                labels.append(result.architecture)
        return labels

    def by_architecture(self, architecture_name: str) -> List[RunResult]:
        """All results produced by one architecture label, in grid order."""
        name = architecture_name.lower()
        return [result for result in self.results if result.architecture == name]

    def summaries(self) -> List[Dict[str, object]]:
        """Per-cell headline dictionaries, in grid order."""
        return [result.summary() for result in self.results]

    def to_json(self) -> Dict[str, object]:
        """A dictionary that survives ``json.dumps``/``json.loads`` unchanged."""
        return {
            "spec": self.spec.to_json(),
            "results": [result.to_json() for result in self.results],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "SweepResult":
        """Rebuild a :class:`SweepResult` from :meth:`to_json` output."""
        spec_data = data["spec"]
        assert isinstance(spec_data, Mapping)
        spec = SweepSpec(
            programs=tuple(spec_data["programs"]),  # type: ignore[arg-type]
            latencies=tuple(spec_data["latencies"]),  # type: ignore[arg-type]
            architectures=tuple(spec_data["architectures"]),  # type: ignore[arg-type]
            scale=float(spec_data["scale"]),  # type: ignore[arg-type]
            axes=tuple(
                (str(name), tuple(values))
                for name, values in spec_data.get("axes", [])  # type: ignore[union-attr]
            ),
        )
        results = [RunResult.from_json(item) for item in data["results"]]  # type: ignore[union-attr]
        return cls(spec=spec, results=results)


@dataclass(frozen=True)
class EntryCheck:
    """The outcome of re-simulating one store entry (:func:`verify_store`).

    ``outcome`` is ``"identical"``, ``"different"`` (``detail`` names the
    differing result fields) or ``"stale"``: the entry's machine no longer
    builds a spec, or its key is not the one this code derives for its cell,
    so it was written under another machine schema, timing model, trace
    generator or key scheme and is not comparable.
    """

    cell: str
    outcome: str
    detail: str = ""


def verify_store(store: ResultStore, sample: Optional[int] = None) -> List[EntryCheck]:
    """Re-simulate stored cells and diff each with its stored payload.

    Checks every entry, or ``sample`` of them spread evenly over the store's
    write order.  Each cell is simulated on its trace with the invocation
    marks cleared, so it runs row by row: an entry written by the
    fast-forward is compared with a simulation that never skips.
    """
    entries: List[StoreEntry] = store.entries()
    if sample is not None and sample < len(entries):
        entries = [entries[index * len(entries) // sample] for index in range(sample)]
    traces = TraceCache()
    checks: List[EntryCheck] = []
    for entry in entries:
        cell = f"{entry.program}/{entry.latency}/{entry.architecture} (scale {entry.scale:g})"
        stored = store.get(entry.key)
        config = RunConfig(latency=entry.latency)
        machine = None
        if stored is not None and stored.spec is not None:
            try:
                spec = MachineSpec(**stored.spec)
            except (TypeError, ConfigurationError):
                pass  # a field this code no longer has, or a value out of range
            else:
                machine = SpecArchitecture(name=entry.architecture, description="", spec=spec)
        if machine is None or entry.key != cell_key(
            entry.program, entry.scale, entry.latency, machine, config
        ):
            checks.append(EntryCheck(cell, "stale"))
            continue
        fresh = machine.simulate(traces.get(entry.program, entry.scale).unmarked(), config)
        expected = replace(stored, cached=False, store_key=None).to_json()
        if json.dumps(fresh.to_json()) == json.dumps(expected):
            checks.append(EntryCheck(cell, "identical"))
            continue
        detail = fresh.detail
        fields = sorted(
            name
            for name in set(detail) | set(stored.detail)
            if detail.get(name) != stored.detail.get(name)
        )
        checks.append(EntryCheck(cell, "different", ", ".join(fields) or "payload layout"))
    return checks


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    store: Union[ResultStore, str, Path, None] = None,
    progress: Optional[ProgressCallback] = None,
) -> SweepResult:
    """Convenience wrapper: execute ``spec`` with a fresh :class:`Runner`.

    Pass ``store`` (a :class:`~repro.store.ResultStore` or a directory path)
    to make the sweep incremental: cells already in the store are loaded
    instead of simulated, and fresh cells are persisted for next time.
    ``progress`` receives one :class:`CellProgress` per finished cell.
    """
    return Runner(jobs=jobs, store=store).run(spec, progress=progress)
