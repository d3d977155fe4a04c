"""Reproduction of "Decoupled Vector Architectures" (Espasa & Valero, HPCA 1996).

The package is organised as a stack of substrates topped by the paper's
contribution:

* :mod:`repro.isa` — Convex C34-style vector instruction set model.
* :mod:`repro.trace` — dynamic instruction traces (the Dixie substitute).
* :mod:`repro.workloads` — synthetic Perfect Club workload models and a small
  vectorizing compiler.
* :mod:`repro.memory` — scalar cache and vector memory disambiguation.
* :mod:`repro.engine` — the shared timing kernel (register scoreboard,
  functional-unit occupancy, memory fabric and the fixed memory timing) both
  machines build on.
* :mod:`repro.refarch` — the reference (non-decoupled) vector architecture.
* :mod:`repro.dva` — the decoupled vector architecture with load/store queues
  and the store→load bypass.
* :mod:`repro.core` — the unified experiment API: machine specs and the
  paper's three machine presets, run configuration, the sweep
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

The facades (this package, :mod:`repro.core`, :mod:`repro.common` and
:mod:`repro.store`) are lazy: importing one loads nothing but itself, and a
public name imports its defining module on first access (PEP 562
``__getattr__``).  A command therefore imports only what it runs — the
simulators, for one, load at the first simulation.
"""

import importlib
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

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
    "run_sweep",
    "simulate",
]


def _lazy_exports(
    namespace: Dict[str, object], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """A facade package's PEP 562 ``__getattr__`` and ``__dir__``.

    ``exports`` maps each defining module to the public names the facade
    takes from it; a name equal to the module's last component is that
    submodule itself.  A name is imported on its first access and then bound
    in ``namespace`` (the facade's globals), so later reads are plain
    attribute lookups.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = importlib.import_module(origin[name])
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = module if module.__name__ == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    globals(), {"repro.core": [name for name in __all__ if name != "__version__"]}
)
