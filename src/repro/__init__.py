"""Reproduction of "Decoupled Vector Architectures" (Espasa & Valero, HPCA 1996).

The package is organised as a stack of substrates topped by the paper's
contribution:

* :mod:`repro.isa` — Convex C34-style vector instruction set model.
* :mod:`repro.trace` — dynamic instruction traces (the Dixie substitute).
* :mod:`repro.workloads` — synthetic Perfect Club workload models and a small
  vectorizing compiler.
* :mod:`repro.memory` — scalar cache and vector memory disambiguation.
* :mod:`repro.engine` — the shared timing kernel (register scoreboard,
  resource pools, memory fabric and the fixed memory timing) both machines
  build on.
* :mod:`repro.refarch` — the reference (non-decoupled) vector architecture.
* :mod:`repro.dva` — the decoupled vector architecture with load/store queues
  and the store→load bypass.
* :mod:`repro.core` — the unified experiment API: machine specs and the
  architecture registry, run configuration, the sweep
  runner (serial or over forked worker processes, with per-program trace caching),
  figure/table reproduction and the ``python -m repro`` command line.
* :mod:`repro.store` — the persistent, content-addressed result store that
  makes sweeps incremental and resumable: completed cells are cached under
  ``~/.cache/repro`` keyed on their full input description and never
  re-simulated.
* :mod:`repro.service` — the sweep service behind ``repro serve``: an
  asyncio HTTP daemon over the store that answers warm cells in
  microseconds, deduplicates identical in-flight cells across concurrent
  clients, and streams per-cell sweep progress as server-sent events.

The :mod:`repro.core` facade is re-exported here, so most callers only need::

    from repro import MachineSpec, SweepSpec, run_sweep, simulate
"""

from repro.core import (
    MachineSpec,
    ResultStore,
    RunConfig,
    RunResult,
    Runner,
    SpecArchitecture,
    SweepResult,
    SweepSpec,
    architecture,
    architecture_names,
    machine_spec,
    register_architecture,
    resolve_architecture,
    run_sweep,
    simulate,
)

__version__ = "1.9.0"

__all__ = [
    "MachineSpec",
    "ResultStore",
    "RunConfig",
    "RunResult",
    "Runner",
    "SpecArchitecture",
    "SweepResult",
    "SweepSpec",
    "__version__",
    "architecture",
    "architecture_names",
    "machine_spec",
    "register_architecture",
    "resolve_architecture",
    "run_sweep",
    "simulate",
]
