"""The unified experiment API — the package's public surface.

Everything the paper's experiments need is reachable from here without
touching the per-architecture packages:

* :class:`MachineSpec` — a declarative, validated machine description
  (family, lanes, ports, bypass, chaining, queue depths, scalar-cache
  geometry) with a canonical string form (``dva@lanes=2,ports=2``) that
  :func:`machine_spec` parses back.
* the architecture registry: every machine is a :class:`SpecArchitecture`
  (a label and a :class:`MachineSpec`).  :func:`architecture` resolves the
  paper's three presets (``"ref"``, ``"dva"``, ``"dva-nobypass"``) and
  inline spec strings built on them, and labels each machine by its spec
  alone, so one machine has one name.  Results come back as a unified,
  JSON-serializable :class:`RunResult` carrying the resolved spec as
  provenance.
* :class:`SweepSpec` declaring (programs × latencies ×
  machine axes × architectures) grids — any :class:`MachineSpec` field can
  be a sweep axis — and the :class:`Runner` executing them serially or
  across a pool of worker processes with per-program trace caching.
* :class:`~repro.store.ResultStore` / :func:`~repro.store.cell_key`
  (re-exported from :mod:`repro.store`) — the persistent content-addressed
  result cache; hand a store to the :class:`Runner` (or ``run_sweep``'s
  ``store=`` argument) and sweeps become incremental and resumable.
* :mod:`repro.core.figures` computing the paper's headline artifacts
  (Figure 5 speedup curves, Figure 6 queue-occupancy histograms, the
  Section 7 bypass-traffic table) as plain rows.
* :mod:`repro.core.cli` backing the ``python -m repro`` command line.

The facade is lazy (PEP 562): importing :mod:`repro.core` loads no
submodule, and each name above imports its defining module on first access,
so ``repro.core.MachineSpec`` loads the machine schema alone and the
simulators wait for the first :func:`simulate`.
"""

from repro import _lazy_exports

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
    "resolve_sweep_machines",
    "run_sweep",
    "simulate",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.core.config": ["RunConfig"],
        "repro.core.experiment": [
            "CellProgress",
            "Runner",
            "SweepResult",
            "SweepSpec",
            "TraceCache",
            "resolve_sweep_machines",
            "run_sweep",
        ],
        "repro.core.machine": ["FieldInfo", "MachineSpec"],
        "repro.core.registry": [
            "SpecArchitecture",
            "architecture",
            "architecture_names",
            "machine_spec",
            "simulate",
        ],
        "repro.core.result": ["RunResult"],
        "repro.core.figures": ["figures"],
        "repro.store": ["ResultStore", "cell_key"],
    },
)
