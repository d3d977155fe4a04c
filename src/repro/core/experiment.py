"""Declarative experiments: sweep grids and the runner that executes them.

The paper's central experiment is a grid — six Perfect Club programs × memory
latencies {1, 10, 50, 100} × machines {REF, DVA} (§4–§7).  A
:class:`SweepSpec` declares such a grid and a :class:`Runner` executes every
cell either serially or across a pool of worker processes
(:mod:`repro.core.scheduler`, :mod:`repro.core.pool`).  A cell is fully described by its program, scale,
latency and machine spec.  The :class:`SweepSpec` constructor is the one
reader of a grid: code, the service's JSON bodies and the command line's
flags all hand it their values as they are (a list field may be one
comma-separated string), so a grid reads, and fails, the same way on every
path.

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
each program's trace at most once per process: in-process batches share a
per-runner :class:`TraceCache`, and each pool worker fills a process-local
cache lazily, building only the programs it is handed — never per cell.
Every path runs with the generational garbage collector on and never forces
a collection: a forced full collection cost more than the costliest cell
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

import itertools
import json
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
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
from repro.core.config import PROGRAM_NAMES, RunConfig, check_scale
from repro.core.machine import (
    LATENCY_AXIS,
    MachineSpec,
    axis_combinations,
    canonical_axis_name,
    parse_axis_values,
)
from repro.core.registry import SpecArchitecture, architecture
from repro.store import ResultStore

# The program models, the trace builder, the simulators and the key scheme
# (which hashes their versions) are imported where a cell first needs them,
# so declaring a grid or building a Runner loads none of them.
if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import RunResult
    from repro.core.scheduler import CellScheduler
    from repro.store import StoreEntry
    from repro.trace.columns import Trace

Overrides = Tuple[Tuple[str, object], ...]
Axes = Tuple[Tuple[str, Tuple[object, ...]], ...]

#: Trace lengths, memoized per (program, scale): counting one compiles the
#: program's kernels (about 0.5 ms), once per process.
_LENGTH_CACHE: Dict[Tuple[str, float], int] = {}

#: The most rows a cell's trace may have.  A row is four ``int64`` columns
#: (``insn``, ``vl``, ``stride``, ``addr``), 32 bytes, so the limit holds one
#: trace's columns to 1 GiB; the paper's programs have 1,776-8,879 rows at
#: scale 1, and TRFD reaches the limit near scale 3,900.
MAX_TRACE_ROWS = 1 << 25


def trace_rows(program: str, scale: float) -> int:
    """The exact row count of ``program``'s trace at ``scale``, refused above
    :data:`MAX_TRACE_ROWS`.

    Counted by :meth:`~repro.workloads.program_model.ProgramModel.trace_length`,
    which emits no row.  :func:`resolve_sweep_machines` calls this for every
    program of a grid, so a ``run``, a ``sweep``, ``/v1/run`` and
    ``/v1/sweeps`` all refuse an oversized trace before any row is built.
    """
    key = (program.upper(), float(scale))
    rows = _LENGTH_CACHE.get(key)
    if rows is None:
        from repro.workloads.perfect_club import load_program

        rows = _LENGTH_CACHE[key] = load_program(program).trace_length(scale)
    if rows > MAX_TRACE_ROWS:
        raise WorkloadError(
            f"{program} at trace scale {scale:g} has {rows:,} rows, more than "
            f"the {MAX_TRACE_ROWS:,} a cell may build"
        )
    return rows


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
    Used to put the costliest batch first in the
    :class:`~repro.core.scheduler.CellScheduler`'s flush.  A program
    :func:`trace_rows` refuses costs 1: scheduling must never fail a cell
    that validation has already admitted.
    """
    try:
        return trace_rows(program, scale)
    except WorkloadError:
        return 1


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
    """Split a comma-separated list that may contain inline machine specs.

    A bare comma separates entries, but a token containing ``=`` (and no
    ``@`` of its own — that would start the next spec) is an assignment
    belonging to the previous entry's ``@`` clause, so
    ``"ref,dva@lanes=2,ports=2"`` is two entries and
    ``"dva@bypass=off,ref@lanes=2"`` is two as well.  Only architectures
    hold ``@``; every other list splits on every comma.
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


def _entries(value: object, what: str) -> Tuple[object, ...]:
    """A list field's entries: a sequence, or one comma-separated string."""
    if isinstance(value, str):
        return _split_spec_list(value)
    if isinstance(value, Sequence):
        return tuple(value)
    raise ConfigurationError(f"{what} must be a list or a comma-separated string")


def _names(value: object, what: str) -> Tuple[str, ...]:
    """A list field of names, each a non-empty string, stripped."""
    names = []
    for name in _entries(value, what):
        if not isinstance(name, str) or not name.strip():
            raise ConfigurationError(f"{what} entries must be non-empty strings, got {name!r}")
        names.append(name.strip())
    return tuple(names)


@dataclass(frozen=True)
class SweepSpec:
    """A (programs × latencies × machine axes × architectures) grid.

    The constructor is the one reader of a grid, whether it comes from code,
    from JSON (:meth:`from_json`) or from the command line, so every input
    follows one rule set:

    * every list field is a sequence or one comma-separated string
      (``"dyfesm,trfd"``); an architecture string keeps the commas of an
      inline spec's ``@`` clause (``"ref,dva@lanes=2,ports=2"`` is two
      entries);
    * names are non-empty strings; programs are upper-cased to the
      registry's form and architectures lower-cased, which may be preset
      names (``"ref"``, ``"dva"``, ``"dva-nobypass"``) or inline
      machine-spec strings (``"dva@lanes=2"``);
    * a latency is a non-negative int, an integral float or a string of
      digits — never a ``bool``, ``1.5``, ``NaN`` or an infinity;
    * ``scale`` is a finite positive number (not a ``bool``).

    ``axes`` declares extra sweep dimensions over
    :class:`~repro.core.machine.MachineSpec` fields, as a mapping (or a
    sequence of ``(name, values)`` pairs) of axis name → values, e.g.
    ``{"lanes": (1, 2, 4), "ports": "1,2"}``; values may be a scalar, a
    sequence or a comma-separated string.  A ``"latency"`` axis is folded
    into :attr:`latencies` (it is the one axis that is not a machine field),
    so it may be given either way but not both.  Anything malformed raises
    :class:`~repro.common.errors.ConfigurationError`.
    """

    programs: Tuple[str, ...]
    latencies: Tuple[int, ...] = ()
    architectures: Tuple[str, ...] = ("ref", "dva")
    scale: float = 1.0
    axes: Axes = ()

    def __post_init__(self) -> None:
        programs = tuple(name.upper() for name in _names(self.programs, "programs"))
        architectures = tuple(
            name.lower() for name in _names(self.architectures, "architectures")
        )
        latencies = _entries(self.latencies, "latencies")
        if latencies:
            latencies = parse_axis_values(LATENCY_AXIS, latencies)
        pairs = list(self.axes.items()) if isinstance(self.axes, Mapping) else self.axes
        if isinstance(pairs, str) or not isinstance(pairs, Sequence) or not all(
            isinstance(pair, Sequence) and not isinstance(pair, str) and len(pair) == 2
            for pair in pairs
        ):
            raise ConfigurationError(
                "sweep axes must be a mapping or a list of [name, values] pairs"
            )
        axes: List[Tuple[str, Tuple[object, ...]]] = []
        for name, values in pairs:
            if not isinstance(name, str):
                raise ConfigurationError(f"sweep axis names must be strings, got {name!r}")
            if not isinstance(values, (str, Sequence)):
                values = (values,)
            values = parse_axis_values(name, _entries(values, f"sweep axis {name!r}"))
            key = canonical_axis_name(name)
            if key == LATENCY_AXIS:
                if latencies:
                    raise ConfigurationError(
                        "latencies given twice (both the 'latencies' field "
                        "and a 'latency' axis)"
                    )
                latencies = values
                continue
            if any(key == existing for existing, _ in axes):
                raise ConfigurationError(f"sweep axis {key!r} declared twice")
            axes.append((key, values))
        scale = self.scale
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise ConfigurationError(f"scale must be a number, got {scale!r}")
        try:
            scale = check_scale(float(scale))
        except (OverflowError, WorkloadError) as exc:
            raise ConfigurationError(str(exc)) from None
        object.__setattr__(self, "programs", programs)
        object.__setattr__(self, "latencies", latencies)
        object.__setattr__(self, "architectures", architectures)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "axes", tuple(axes))
        if not programs:
            raise ConfigurationError("a sweep needs at least one program")
        if not latencies:
            raise ConfigurationError("a sweep needs at least one memory latency")
        if not architectures:
            raise ConfigurationError("a sweep needs at least one architecture")
        if len(set(programs)) != len(programs):
            raise ConfigurationError("sweep programs repeat a value")

    def to_json(self) -> Dict[str, object]:
        """The grid as JSON: a sweep result's ``spec`` block and the service's.

        :meth:`from_json` reads the same shape back.
        """
        return {
            "programs": list(self.programs),
            "latencies": list(self.latencies),
            "architectures": list(self.architectures),
            "scale": self.scale,
            "axes": [[name, list(values)] for name, values in self.axes],
        }

    @classmethod
    def from_json(cls, payload: object) -> "SweepSpec":
        """Read a grid from :meth:`to_json`'s shape: a sweep result's ``spec``
        block or the service's sweep request.

        Only the payload's shape is checked here — a mapping of known fields
        that has ``programs``; the constructor reads every value, so a JSON
        body follows the same rules as code and the command line.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError("sweep spec must be a JSON object")
        names = sorted(field.name for field in fields(cls))
        unknown = sorted(map(repr, set(payload) - set(names)))
        if unknown:
            raise ConfigurationError(
                f"sweep spec has unknown field(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(names)}"
            )
        if "programs" not in payload:
            raise ConfigurationError("sweep spec needs 'programs'")
        return cls(**payload)

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

    Unknown programs, unknown architectures, and two grid cells that are
    the same machine (``dva-nobypass`` beside ``dva`` with a ``bypass=off``
    axis) all fail here, before any simulation: :func:`plan_sweep` calls
    this first, so every driver (the CLI, the library and the sweep
    service, which plans at request admission) rejects a bad sweep with a
    clean error instead of dying mid-run.
    Each program's trace length is counted (:func:`trace_rows`, which
    refuses one above :data:`MAX_TRACE_ROWS`) without emitting a row.
    The returned machines are axis-combo-major, architecture-minor: the
    order each (program, latency) group of :func:`plan_sweep` runs them in.
    """
    for program in spec.programs:
        if program not in PROGRAM_NAMES:
            raise WorkloadError(
                f"unknown benchmark program {program!r} (known: {', '.join(PROGRAM_NAMES)})"
            )
        trace_rows(program, spec.scale)
    machines: List[SpecArchitecture] = []
    seen_labels: Dict[str, Tuple[str, Overrides]] = {}
    for combo in spec.axis_combinations():
        for arch in spec.architectures:
            simulator = architecture(arch, combo)
            previous = seen_labels.get(simulator.name)
            if previous is not None:
                raise ConfigurationError(
                    f"sweep cells {previous!r} and {(arch, combo)!r} are the "
                    f"same machine, {simulator.name!r}; every cell must be a "
                    "distinct machine"
                )
            seen_labels[simulator.name] = (arch, combo)
            machines.append(simulator)
    return machines


@dataclass
class PlannedCell:
    """One grid cell on its way to a result: the one cell record.

    :func:`plan_sweep` makes it, and the :class:`Runner`, its pool workers
    and the sweep service's scheduler execute it as it is.  ``key`` is the
    cell's :func:`~repro.store.cell_key`, with or without a store.
    ``result`` is set at planning time for a store hit and by whoever
    executes the cell otherwise, so a cell still holding ``None`` is a task
    to run.
    """

    program: str
    scale: float
    latency: int
    simulator: SpecArchitecture
    key: str
    result: Optional[RunResult] = None


def plan_sweep(spec: SweepSpec, store: Optional[ResultStore]) -> List[PlannedCell]:
    """Every cell of ``spec`` in grid order, each either a store hit or a task.

    Grid order is program-major, then latency, then axis combination, then
    architecture; it is the order every runner executes and reports in.
    Validation (:func:`resolve_sweep_machines`) runs first, so a bad spec
    fails before any key is computed.  Every cell gets its key; with a
    store, each key is probed and hits come back holding their
    ``cached=True`` result.  The :class:`Runner` starts from this plan, and
    so does the sweep service (without a store: its scheduler probes each
    cell when it is requested).
    """
    from repro.store.keys import cell_key

    machines = resolve_sweep_machines(spec)
    cells: List[PlannedCell] = []
    for program in spec.programs:
        for latency in spec.latencies:
            for simulator in machines:
                key = cell_key(
                    program, spec.scale, latency, simulator, RunConfig(latency=latency)
                )
                hit = store.get(key) if store is not None else None
                cells.append(PlannedCell(program, spec.scale, latency, simulator, key, hit))
    return cells


class TraceCache:
    """Builds each (program, scale) trace at most once.

    A :class:`Runner` keeps one for its in-process batches and each pool
    worker one of its own, filled lazily: a trace is built the first time a
    batch needs it.
    """

    def __init__(self) -> None:
        self._traces: Dict[Tuple[str, float], Trace] = {}

    def get(self, program: str, scale: float) -> Trace:
        """The (program, scale) trace, built on first request and then reused."""
        key = (program.upper(), scale)
        trace = self._traces.get(key)
        if trace is None:
            from repro.workloads.perfect_club import load_program

            trace = load_program(program).build_trace(scale=scale)
            self._traces[key] = trace
        return trace

    def __len__(self) -> int:
        return len(self._traces)


def _run_cells(
    trace: Trace,
    cells: Sequence[PlannedCell],
    store: Optional[ResultStore],
    on_result: Optional[Callable[[RunResult], None]] = None,
) -> List[RunResult]:
    """Sweep one trace across its cells, persisting each as it completes.

    The one simulation loop: the :class:`Runner` runs it in-process and the
    pool workers run it for :func:`_run_program_cells`.  With a store, each
    result is stamped with its cell's key and written before the next cell
    starts, so a simulation process killed mid-batch leaves every
    already-finished cell in the store, and the batch's lines are appended
    to the store's advisory index once its last cell is written.
    ``on_result`` fires per cell, after the store write (in-process
    progress; pool workers run without it).
    """
    results: List[RunResult] = []
    for cell in cells:
        result = cell.simulator.simulate(trace, RunConfig(latency=cell.latency))
        if store is not None:
            result = replace(result, store_key=cell.key)
            store.put(cell.key, result, scale=cell.scale)
        results.append(result)
        if on_result is not None:
            on_result(result)
    if store is not None:
        store.update_index(results, scale=cells[0].scale)
    return results


# Per-process trace cache used by pool workers: each worker builds a trace
# the first time one of its batches needs it and keeps it for the pool's
# whole lifetime.
_WORKER_CACHE = TraceCache()


def _run_program_cells(
    task: Tuple[Sequence[PlannedCell], Optional[str]]
) -> List[RunResult]:
    """Worker: sweep one batch of a program's cells over its cached trace.

    Every :class:`~repro.core.pool.WorkerPool` worker runs each task it
    receives through this function and :data:`_WORKER_CACHE`, both looked up
    on this module when the task arrives.  The cells carry their resolved
    :class:`~repro.core.registry.SpecArchitecture` records, so a worker
    resolves no name.  When the
    parent runs with a result store, the task carries the store *root* (a
    plain path) and the worker opens its own handle: constructing a
    :class:`~repro.store.ResultStore` touches no files, and each completed
    cell is written back immediately so killed sweeps keep their progress.
    """
    cells, store_root = task
    store = ResultStore(store_root) if store_root is not None else None
    trace = _WORKER_CACHE.get(cells[0].program, cells[0].scale)
    return _run_cells(trace, cells, store)


def _available_parallelism() -> int:
    """CPUs this process may actually run on (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def worker_count(jobs: int) -> int:
    """The workers a ``jobs`` ceiling gets: never more than the usable CPUs."""
    return min(jobs, _available_parallelism())


class Runner:
    """Executes sweep grids, in-process or across a persistent process pool.

    ``jobs`` is a ceiling, not a demand: the runner never uses more workers
    than the machine can actually run in parallel, so asking for ``jobs=2``
    on a one-CPU host degrades gracefully to in-process simulation instead
    of paying pool and scheduling overhead for no speedup.  A sweep with a
    single cell to simulate always runs in-process, and so does every sweep
    run from a thread whose event loop is already running.

    :meth:`run` (a whole grid) and :meth:`run_batch` (cells already planned)
    both simulate through :meth:`_simulate`.  In-process cells run
    program by program over the runner's :class:`TraceCache`.  Pooled cells
    are awaited, on an event loop of the call's own, through the runner's
    :class:`~repro.core.scheduler.CellScheduler`, which batches them and
    owns the :class:`~repro.core.pool.WorkerPool`; its workers start at the
    first pooled batch and are reused for the runner's lifetime, so repeated
    sweeps pay for worker startup and trace building once.  Both paths
    produce identical results in identical order — the simulators are
    deterministic and each cell is independent — which the test suite
    asserts.  Neither path pauses the garbage collector or forces a
    collection; pool workers freeze the heap they inherit.

    With a :class:`~repro.store.ResultStore` attached (``store=`` — an
    instance, or a path to open one at), the runner becomes *incremental*:
    store hits are loaded instead of simulated (their traces are not even
    built), misses are written back cell-by-cell as they complete, and the
    hit/miss split of the last run is reported on the returned
    :class:`SweepResult` via its per-result ``cached`` flags.

    The pool is released by :meth:`close`, by using the runner as a context
    manager, at garbage collection, or when an interrupt stops a pooled run.
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
        self._scheduler: Optional[CellScheduler] = None

    @property
    def effective_jobs(self) -> int:
        """Workers the runner will actually use for a parallel sweep."""
        return worker_count(self.jobs)

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
        (store hits first, then simulated cells — in grid order in-process,
        batch by batch when pooled), so long sweeps are observable.
        """
        cells = plan_sweep(spec, self.store)
        tracker = _ProgressTracker(progress, len(cells))
        for cell in cells:
            if cell.result is not None:
                tracker.report(cell.result)
        misses = [cell for cell in cells if cell.result is None]
        for cell, result in zip(misses, self._simulate(misses, tracker.report)):
            cell.result = result
        results = [cell.result for cell in cells]
        return SweepResult(spec=spec, results=results)  # type: ignore[arg-type]

    def run_batch(self, cells: Sequence[PlannedCell]) -> List[RunResult]:
        """Simulate planned cells, off the grid path, and return their results.

        The cells run exactly as :meth:`run`'s misses do: in-process or
        through the pool, written to the store per cell and indexed per
        batch.
        """
        return self._simulate(cells)

    def _simulate(
        self,
        cells: Sequence[PlannedCell],
        on_result: Optional[Callable[[RunResult], None]] = None,
    ) -> List[RunResult]:
        """Simulate ``cells``; their results in order.

        More than one cell and more than one effective job go through the
        scheduler, unless this thread already runs an event loop: a call
        from inside a coroutine runs its cells in-process rather than block
        that loop on a second one.  ``on_result`` fires per cell, right
        after its store write in-process, as its batch comes back pooled.
        """
        if len(cells) > 1 and self.effective_jobs > 1:
            import asyncio

            if asyncio._get_running_loop() is None:
                return asyncio.run(self._simulate_pooled(cells, on_result))
        results: List[RunResult] = []
        for (program, scale), group in itertools.groupby(
            cells, key=lambda cell: (cell.program, cell.scale)
        ):
            trace = self.trace_cache.get(program, scale)
            results += _run_cells(trace, list(group), self.store, on_result)
        return results

    async def _simulate_pooled(
        self,
        cells: Sequence[PlannedCell],
        on_result: Optional[Callable[[RunResult], None]],
    ) -> List[RunResult]:
        """Await every cell through the scheduler; raise the first failure
        only once every batch has come back, so no reply is left in a pipe.

        An interrupt (the loop cancels this coroutine) closes the scheduler,
        which joins its workers once they finish the batch in hand.
        """
        import asyncio

        if self._scheduler is None:
            from repro.core.scheduler import CellScheduler

            self._scheduler = CellScheduler(self.store, self.jobs)
        scheduler = self._scheduler

        async def finish(cell: PlannedCell) -> RunResult:
            result = await scheduler.run_cell(cell)
            if on_result is not None:
                on_result(result)
            return result

        try:
            outcomes = await asyncio.gather(*map(finish, cells), return_exceptions=True)
        except BaseException:
            self.close()
            raise
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return outcomes

    def close(self) -> None:
        """Release the worker pool (idempotent; the runner stays usable)."""
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None

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

    def to_json(self) -> Dict[str, object]:
        """A dictionary that survives ``json.dumps``/``json.loads`` unchanged."""
        return {
            "spec": self.spec.to_json(),
            "results": [result.to_json() for result in self.results],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "SweepResult":
        """Rebuild a :class:`SweepResult` from :meth:`to_json` output."""
        from repro.core.result import RunResult

        spec = SweepSpec.from_json(data["spec"])
        results = [RunResult.from_json(item) for item in data["results"]]  # type: ignore[union-attr]
        return cls(spec=spec, results=results)


@dataclass(frozen=True)
class EntryCheck:
    """The outcome of re-simulating one store entry (:func:`verify_store`).

    ``outcome`` is ``"identical"``, ``"different"`` (``detail`` names the
    differing result fields) or ``"stale"``: the entry's machine no longer
    builds a spec, or its key is not the one this code derives for its cell,
    so it was written under another machine schema, machine label, timing
    model, trace generator or key scheme and is not comparable.
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
    from repro.store.keys import cell_key

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
                machine = SpecArchitecture(spec)
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
