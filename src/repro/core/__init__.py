"""The unified experiment API — the package's public surface.

Everything the paper's experiments need is reachable from here without
touching the per-architecture packages:

* :class:`MachineSpec` — a declarative, validated machine description
  (family, lanes, ports, bypass, chaining, queue depths, scalar-cache
  geometry) with a canonical string form (``dva@lanes=2,ports=2``) that
  :func:`machine_spec` parses back.
* the architecture registry: every machine is a :class:`SpecArchitecture`
  (a name, a description and a :class:`MachineSpec`).  The built-ins
  (``"ref"``, ``"dva"``, ``"dva-nobypass"``, ``"ref-2lane"``,
  ``"dva-2port"``) and inline spec strings resolve to one, and
  :func:`register_architecture` names further specs.  Results come back as
  a unified, JSON-serializable :class:`RunResult` carrying the resolved
  spec as provenance.
* :class:`SweepSpec` declaring (programs × latencies ×
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
    Runner,
    SweepResult,
    SweepSpec,
    TraceCache,
    resolve_sweep_machines,
    run_sweep,
)
from repro.core.machine import FieldInfo, MachineSpec
from repro.core.registry import (
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
    "FieldInfo",
    "MachineSpec",
    "ResultStore",
    "RunConfig",
    "RunResult",
    "Runner",
    "cell_key",
    "SpecArchitecture",
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
