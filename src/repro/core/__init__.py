"""The unified experiment API — the package's public surface.

Everything the paper's experiments need is reachable from here without
touching the per-architecture packages:

* :class:`MachineSpec` — a declarative, validated machine description
  (family, lanes, ports, bypass, chaining, queue depths, scalar-cache
  geometry) that round-trips through strings (``dva@lanes=2,ports=2``),
  JSON and TOML.  Named presets (``"ref"``, ``"dva"``, ``"dva-nobypass"``,
  ``"ref-2lane"``, ``"dva-2port"``) are :class:`MachineSpec` instances.
* :class:`Simulator` protocol and the architecture registry resolving
  presets and inline specs into runnable simulators
  (:class:`SpecArchitecture`); extensible via :func:`register_architecture`
  with either a spec or a ready-made simulator.  Results come back as a
  unified, JSON-serializable :class:`RunResult` carrying the resolved spec
  as provenance.
* :class:`SweepSpec` / :class:`Experiment` declaring (programs × latencies ×
  machine axes × architectures) grids — any :class:`MachineSpec` field can
  be a sweep axis — and the :class:`Runner` executing them serially or
  across a ``multiprocessing`` pool with per-program trace caching.
* :class:`~repro.store.ResultStore` / :func:`~repro.store.cell_key`
  (re-exported from :mod:`repro.store`) — the persistent content-addressed
  result cache; hand a store to the :class:`Runner` (or ``run_sweep``'s
  ``store=`` argument) and sweeps become incremental and resumable.
* :mod:`repro.core.figures` computing the paper's headline artifacts
  (Figure 5 speedup curves, Figure 6 queue-occupancy histograms, the
  Section 7 bypass-traffic table) as plain rows.
* :mod:`repro.core.cli` backing the ``python -m repro`` command line.
"""

from repro.core.config import RunConfig
from repro.core.experiment import (
    CellProgress,
    Experiment,
    Runner,
    SweepCell,
    SweepResult,
    SweepSpec,
    TraceCache,
    resolve_sweep_machines,
    run_sweep,
)
from repro.core.machine import PRESETS, FieldInfo, MachineSpec, Preset
from repro.core.registry import (
    Simulator,
    SpecArchitecture,
    architecture,
    architecture_names,
    machine_spec,
    register_architecture,
    resolve_architecture,
    simulate,
    unregister_architecture,
)
from repro.core.result import RunResult
from repro.core import figures
from repro.store import ResultStore, cell_key

__all__ = [
    "CellProgress",
    "Experiment",
    "FieldInfo",
    "MachineSpec",
    "PRESETS",
    "Preset",
    "ResultStore",
    "RunConfig",
    "RunResult",
    "Runner",
    "cell_key",
    "Simulator",
    "SpecArchitecture",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "TraceCache",
    "architecture",
    "architecture_names",
    "figures",
    "machine_spec",
    "register_architecture",
    "resolve_architecture",
    "resolve_sweep_machines",
    "run_sweep",
    "simulate",
    "unregister_architecture",
]
