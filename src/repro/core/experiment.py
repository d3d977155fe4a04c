"""Declarative experiments: sweep grids and the runner that executes them.

The paper's central experiment is a grid — six Perfect Club programs × memory
latencies {1, 10, 50, 100} × machines {REF, DVA} (§4–§7).  A
:class:`SweepSpec` declares such a grid, an :class:`Experiment` binds it to a
base :class:`~repro.core.config.RunConfig`, and a :class:`Runner` executes
every cell either serially or across a ``multiprocessing`` pool.

Sweeps are not limited to the latency axis: any
:class:`~repro.core.machine.MachineSpec` field can be an axis too, so
``SweepSpec(programs=..., axes={"lanes": (1, 2, 4), "ports": (1, 2),
"latency": (1, 50, 100)})`` crosses every machine parameter with every
latency for every architecture in the grid.  Each cell's machine-axis values
are pinned onto the architecture's spec before simulation, the resolved
spec's canonical string becomes the cell's architecture label (``"dva"``,
``"dva@lanes=2"``, ...), and the resolved spec itself travels with the
:class:`~repro.core.result.RunResult` as provenance.

Trace generation is the repeated cost across cells (every latency and
architecture of one program re-simulates the same trace), so the runner builds
each program's trace at most once per process: the serial path keeps a
per-runner :class:`TraceCache`, and pool workers keep a process-local cache
that is seeded copy-on-write with whatever the parent had already built when
the pool forked and fills lazily otherwise — never per cell.  Workers also
run with the cyclic garbage collector off (they only run simulation batches,
and the simulators allocate heavily), collecting once per batch instead of
continuously.

Across *processes and days*, the repeated cost is simulation itself, and a
:class:`~repro.store.ResultStore` eliminates it: give the runner a store and
it consults it before dispatching cells (hits come back as results marked
``cached=True``, their programs' traces are never even built), simulates only
the misses, and writes each miss back the moment it completes — in the
worker, not at the end of the sweep — so a killed sweep resumes with zero
re-simulated cells and an identical warm re-run is pure cache hits.  Cells
whose simulator is not spec-backed have no content-addressed identity and
transparently bypass the store.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.pool
import os
import sys
import threading
from dataclasses import dataclass, field, replace
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
    axis_combinations,
    canonical_axis_name,
    parse_axis_values,
)
from repro.core.registry import Simulator, resolve_architecture
from repro.core.result import RunResult
from repro.store import ResultStore, cell_key
from repro.trace.record import Trace
from repro.workloads.perfect_club import load_program

Overrides = Tuple[Tuple[str, object], ...]
Axes = Tuple[Tuple[str, Tuple[object, ...]], ...]

#: One dispatchable unit of work: (latency, resolved simulator, cache key or
#: ``None`` when the cell is uncacheable or no store is in play).
CellTask = Tuple[int, Simulator, Optional[str]]

#: Estimated trace lengths, memoized per (program, scale): the program models
#: are tiny dataclasses but there is no reason to rebuild one per cell.
_LENGTH_CACHE: Dict[Tuple[str, float], int] = {}


def estimate_cell_cost(program: str, scale: float, latency: int) -> int:
    """A unitless estimate of one cell's simulation cost, for scheduling.

    Cost is (latency + 1) x the program's estimated dynamic trace length: a
    latency-100 cell stalls the cycle-by-cycle engine through roughly two
    orders of magnitude more idle cycles than a latency-1 cell of the same
    trace, so latency dominates and trace length breaks ties across programs.
    Used to dispatch work longest-job-first — by the :class:`Runner` (so
    static batches stop starving on long-latency cells), the sweep service's
    batch scheduler, and the cluster manifest (costliest cells are claimed
    first).  Unknown programs cost 1: scheduling must never fail a cell that
    validation has already admitted.
    """
    key = (program.upper(), float(scale))
    length = _LENGTH_CACHE.get(key)
    if length is None:
        try:
            length = load_program(program).estimated_trace_length(scale)
        except WorkloadError:
            length = 1
        _LENGTH_CACHE[key] = length
    return (int(latency) + 1) * length


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
    """Counts finished cells and fans events out to the user's callback."""

    def __init__(self, callback: ProgressCallback, total: int) -> None:
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

    def report_all(self, results: Sequence[RunResult]) -> None:
        for result in results:
            self.report(result)


@dataclass(frozen=True)
class SweepCell:
    """One point of a sweep grid.

    ``architecture`` is the grid's (base) architecture name; ``overrides``
    holds the cell's machine-axis values as ``(axis, value)`` pairs.  The
    executed result's architecture *label* is the base name when there are no
    overrides, and the merged spec's canonical string otherwise.
    """

    program: str
    latency: int
    architecture: str
    overrides: Overrides = ()


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
    the one :class:`~repro.core.config.RunConfig` axis), so it may be given
    either way but not both.
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
        if self.scale <= 0:
            raise ConfigurationError("trace scale must be positive")

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

    def cells(self) -> Iterator[SweepCell]:
        """Grid cells in deterministic program-major order."""
        combos = self.axis_combinations()
        for program in self.programs:
            for latency in self.latencies:
                for combo in combos:
                    for arch in self.architectures:
                        yield SweepCell(program, latency, arch, overrides=combo)

    def __len__(self) -> int:
        cells = len(self.programs) * len(self.latencies) * len(self.architectures)
        for _, values in self.axes:
            cells *= len(values)
        return cells


def resolve_sweep_machines(spec: SweepSpec) -> List[Simulator]:
    """Resolve every (axis-combo × architecture) of ``spec`` into simulators.

    Unknown architectures, non-spec-backed machines under an axis sweep, and
    distinct grid cells that collapse onto the same machine label all fail
    here, before any simulation: the :class:`Runner` calls this up front,
    and the sweep service calls it at request admission so a bad sweep is
    rejected with a clean error instead of dying mid-run.  The returned
    simulators are axis-combo-major, matching the pair order of
    :meth:`SweepSpec.cells`.
    """
    machines: List[Simulator] = []
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


class TraceCache:
    """Builds each (program, scale) trace at most once.

    Cached traces are columnar
    (:class:`~repro.trace.columns.ColumnarTrace`-backed), so what pool
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
    config: RunConfig,
    store: Optional[ResultStore],
    scale: float,
    on_result: Optional[Callable[[RunResult], None]] = None,
) -> List[RunResult]:
    """Sweep one trace across its cells, persisting each as it completes.

    Write-back happens per cell, not per batch, so a simulation process
    killed mid-batch leaves every already-finished cell in the store.
    ``on_result`` fires per cell, after the store write (serial progress
    reporting; pool workers run without it).
    """
    results: List[RunResult] = []
    for latency, simulator, key in tasks:
        result = simulator.simulate(trace, config.with_latency(latency))
        if store is not None and key is not None:
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
    """Initialize one pool worker: cyclic GC off.

    Pool workers only ever run simulation batches, so they trade the cyclic
    garbage collector's continuous scanning for one collection at the end of
    each batch — the simulators allocate heavily, and the worker's heap is
    bounded by the batch either way.  Traces are not built here: each worker
    builds (or, under fork, inherits) them on first use, so workers never
    pay for programs they are not assigned.
    """
    gc.disable()


def _run_program_cells(
    task: Tuple[str, float, Sequence[CellTask], RunConfig, Optional[str]]
) -> List[RunResult]:
    """Worker: sweep one batch of a program's cells over its cached trace.

    Module-level so ``multiprocessing`` can pickle it under both the fork and
    spawn start methods.  The task carries the resolved :class:`Simulator`
    objects rather than registry names, so runtime-registered extensions work
    in workers too — provided the simulator object itself pickles.  When the
    parent runs with a result store, the task carries the store *root* (a
    plain path) and the worker opens its own handle: constructing a
    :class:`~repro.store.ResultStore` touches no files, and each completed
    cell is written back immediately so killed sweeps keep their progress.
    """
    program, scale, cell_tasks, config, store_root = task
    store = ResultStore(store_root) if store_root is not None else None
    trace = _WORKER_CACHE.get(program, scale)
    try:
        return _run_cells(trace, cell_tasks, config, store, scale)
    finally:
        if not gc.isenabled():
            gc.collect()


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


def _balanced_chunks(costs: Sequence[int], chunks: int) -> List[List[int]]:
    """Deal task indices into at most ``chunks`` cost-balanced groups.

    ``costs`` is expected cost-descending (the runner sorts misses that way);
    dealing each task onto the currently lightest group is the classic
    longest-processing-time-first heuristic, so the groups finish at roughly
    the same time instead of one group hoarding every expensive cell.  Groups
    keep their tasks in the incoming order; empty groups are dropped.
    """
    chunks = max(1, min(chunks, len(costs)))
    groups: List[List[int]] = [[] for _ in range(chunks)]
    loads = [0] * chunks
    for index, cost in enumerate(costs):
        target = min(range(chunks), key=loads.__getitem__)
        groups[target].append(index)
        loads[target] += cost
    return [group for group in groups if group]


class Runner:
    """Executes sweep grids, serially or across a persistent process pool.

    ``jobs`` is a ceiling, not a demand: the runner never uses more workers
    than the machine can actually run in parallel, so asking for ``jobs=2``
    on a one-CPU host degrades gracefully to the in-process serial path
    instead of paying pool and scheduling overhead for no speedup (pass
    ``adaptive=False`` to force the pool regardless, e.g. to test it).

    The serial path runs in-process against a shared :class:`TraceCache`.
    The parallel path distributes batches of cells over a ``multiprocessing``
    pool that is created on the first parallel run and reused for the
    runner's lifetime, so repeated sweeps pay for worker startup and trace
    building once: fork-started workers inherit whatever traces the parent
    had already built, and build anything else lazily, once per worker.
    When the grid has fewer programs than workers, each program's cells are
    split into chunks so every worker gets work.  Both paths produce
    identical results in identical order — the simulators are deterministic
    and each cell is independent — which the test suite asserts.

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
        adaptive: bool = True,
        store: Union[ResultStore, str, Path, None] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("runner needs at least one job")
        self.jobs = jobs
        self.adaptive = adaptive
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
        if self.adaptive:
            return min(self.jobs, _available_parallelism())
        return self.jobs

    def run(
        self,
        spec: SweepSpec,
        config: Optional[RunConfig] = None,
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
        config = config if config is not None else RunConfig()
        tracker = (
            _ProgressTracker(progress, len(spec)) if progress is not None else None
        )
        for program in spec.programs:
            load_program(program)  # fail fast on unknown programs

        # Resolve names once, up front: unknown architectures, non-spec-backed
        # machines under an axis sweep, and cells that collapse onto the same
        # machine all fail before any simulation.  Workers receive the
        # resolved simulator objects themselves (plain frozen dataclasses, so
        # they pickle), not registry names.
        machines = resolve_sweep_machines(spec)
        pairs = [
            (latency, simulator)
            for latency in spec.latencies
            for simulator in machines
        ]

        # Consult the store: every grid slot is either a hit (a ready result)
        # or a miss (a CellTask still to simulate).  Misses are cost-ordered —
        # longest job first, so a latency-100 cell starts before the cheap
        # latency-1 cells of the same program instead of anchoring the tail of
        # a static batch — and each task's original pair index travels with it
        # (``positions``), so re-assembly below restores exact grid order no
        # matter how dispatch reordered the work.
        hits: Dict[Tuple[int, int], RunResult] = {}
        misses: List[List[CellTask]] = []
        miss_positions: List[List[int]] = []
        for program_index, program in enumerate(spec.programs):
            program_misses: List[CellTask] = []
            positions: List[int] = []
            for pair_index, (latency, simulator) in enumerate(pairs):
                key = None
                if self.store is not None:
                    key = cell_key(program, spec.scale, latency, simulator, config)
                    if key is not None:
                        found = self.store.get(key)
                        if found is not None:
                            hits[(program_index, pair_index)] = found
                            if tracker is not None:
                                tracker.report(found)
                            continue
                program_misses.append((latency, simulator, key))
                positions.append(pair_index)
            if len(program_misses) > 1:
                order = sorted(
                    range(len(program_misses)),
                    key=lambda i: -estimate_cell_cost(
                        program, spec.scale, program_misses[i][0]
                    ),
                )
                program_misses = [program_misses[i] for i in order]
                positions = [positions[i] for i in order]
            misses.append(program_misses)
            miss_positions.append(positions)
        miss_programs = [
            (index, program)
            for index, program in enumerate(spec.programs)
            if misses[index]
        ]
        miss_count = sum(len(batch) for batch in misses)

        # A single-cell dispatch gains nothing from the pool, but only skip
        # it when adaptive: adaptive=False means "force the pool regardless"
        # (e.g. to prove a custom simulator pickles into workers).
        if miss_count == 0:
            per_program: List[List[RunResult]] = [[] for _ in spec.programs]
        elif self.effective_jobs == 1 or (self.adaptive and miss_count == 1):
            per_program = self._run_serial(spec, miss_programs, misses, config, tracker)
        else:
            per_program = self._run_parallel(spec, miss_programs, misses, config, tracker)

        for program_index in range(len(spec.programs)):
            for position, result in zip(
                miss_positions[program_index], per_program[program_index]
            ):
                hits[(program_index, position)] = result
        results = [
            hits[(program_index, pair_index)]
            for program_index in range(len(spec.programs))
            for pair_index in range(len(pairs))
        ]

        if self.store is not None and miss_count:
            # Workers (or the serial loop) wrote the objects; merge this
            # sweep's cells into the advisory index once, in the parent —
            # O(cells written), never a full store scan.
            self.store.update_index(
                [
                    (result.store_key, result)
                    for result in results
                    if result.store_key is not None and not result.cached
                ],
                scale=spec.scale,
            )
        return SweepResult(spec=spec, results=results)

    def _run_serial(
        self,
        spec: SweepSpec,
        miss_programs: Sequence[Tuple[int, str]],
        misses: Sequence[Sequence[CellTask]],
        config: RunConfig,
        tracker: Optional[_ProgressTracker] = None,
    ) -> List[List[RunResult]]:
        """Run every miss batch in-process.

        A runner asked for more than one job is in batch-throughput mode even
        when the machine caps it to in-process execution, so it simulates the
        way the pool workers do: cyclic GC paused during each batch and a
        collection between batches (the caller's GC state is restored after).
        Only programs that actually have misses get their traces built.
        """
        traces = {
            index: self.trace_cache.get(program, spec.scale)
            for index, program in miss_programs
        }
        throughput_mode = self.jobs > 1 and gc.isenabled()
        if throughput_mode:
            gc.disable()
        try:
            per_program: List[List[RunResult]] = [[] for _ in spec.programs]
            on_result = tracker.report if tracker is not None else None
            for index, _program in miss_programs:
                per_program[index] = _run_cells(
                    traces[index], misses[index], config, self.store, spec.scale,
                    on_result=on_result,
                )
                if throughput_mode:
                    gc.collect()
            return per_program
        finally:
            if throughput_mode:
                gc.enable()

    def _run_parallel(
        self,
        spec: SweepSpec,
        miss_programs: Sequence[Tuple[int, str]],
        misses: Sequence[Sequence[CellTask]],
        config: RunConfig,
        tracker: Optional[_ProgressTracker] = None,
    ) -> List[List[RunResult]]:
        """Distribute the miss batches over the worker pool, costliest first.

        Each program's (cost-ordered) tasks are dealt into per-worker chunks
        longest-job-first, so every chunk carries a balanced share of the
        expensive high-latency cells instead of one chunk hoarding them, and
        the chunks themselves are submitted costliest first so the pool
        starts the longest work immediately.  Results are mapped back to
        each program's miss order explicitly, so reordering dispatch can
        never reorder results.

        With a progress tracker attached the batches stream back through
        ``imap`` (still in submission order) and each batch's cells are
        reported the moment the batch lands.
        """
        store_root = str(self.store.root) if self.store is not None else None
        chunks_per_program = -(-self.effective_jobs // len(miss_programs))
        # One entry per dispatched chunk:
        # (program index, program, local task indices, chunk cost).
        entries: List[Tuple[int, str, List[int], int]] = []
        for index, program in miss_programs:
            costs = [
                estimate_cell_cost(program, spec.scale, latency)
                for latency, _simulator, _key in misses[index]
            ]
            for local in _balanced_chunks(costs, chunks_per_program):
                entries.append(
                    (index, program, local, sum(costs[i] for i in local))
                )
        entries.sort(key=lambda entry: -entry[3])
        tasks = [
            (
                program,
                spec.scale,
                tuple(misses[index][i] for i in local),
                config,
                store_root,
            )
            for index, program, local, _cost in entries
        ]
        pool = self._ensure_pool()
        if tracker is not None:
            flat = []
            for batch in pool.imap(_run_program_cells, tasks):
                tracker.report_all(batch)
                flat.append(batch)
        else:
            flat = pool.map(_run_program_cells, tasks)
        per_program: List[List[RunResult]] = [
            [None] * len(program_misses)  # type: ignore[list-item]
            for program_misses in misses
        ]
        for (index, _program, local, _cost), batch in zip(entries, flat):
            for position, result in zip(local, batch):
                per_program[index][position] = result
        return per_program

    def run_batch(
        self,
        program: str,
        scale: float,
        tasks: Sequence[CellTask],
        config: RunConfig,
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
                _run_program_cells, ((program, scale, tasks, config, store_root),)
            )
        with self._trace_lock:
            trace = self.trace_cache.get(program, scale)
        return _run_cells(trace, tasks, config, self.store, scale)

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
            "spec": {
                "programs": list(self.spec.programs),
                "latencies": list(self.spec.latencies),
                "architectures": list(self.spec.architectures),
                "scale": self.spec.scale,
                "axes": [[name, list(values)] for name, values in self.spec.axes],
            },
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


@dataclass
class Experiment:
    """A sweep grid bound to a base run configuration.

    The grid's per-cell latency overrides the base configuration's; everything
    else (chaining flags, queue sizes, cache geometry) applies to every cell.
    """

    spec: SweepSpec
    config: RunConfig = field(default_factory=RunConfig)
    name: str = ""

    def run(
        self,
        runner: Optional[Runner] = None,
        jobs: int = 1,
        store: Union[ResultStore, str, Path, None] = None,
    ) -> SweepResult:
        """Execute the experiment with ``runner`` (or a fresh one).

        ``jobs`` and ``store`` configure the fresh runner and are ignored
        when an explicit ``runner`` is given (it already carries both).
        """
        runner = runner if runner is not None else Runner(jobs=jobs, store=store)
        return runner.run(self.spec, self.config)


def run_sweep(
    spec: SweepSpec,
    config: Optional[RunConfig] = None,
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
    return Runner(jobs=jobs, store=store).run(spec, config, progress=progress)
