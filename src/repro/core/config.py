"""The inputs of a sweep cell besides the machine: program, scale and latency.

The machine itself is a :class:`~repro.core.machine.MachineSpec`.  This
module names the benchmark programs (:data:`PROGRAM_NAMES`), validates a
trace scale (:func:`check_scale`) and holds the :class:`RunConfig` every
architecture's ``simulate`` takes, which carries the memory latency under
study.  It imports no workload or simulator code, so the command line and
sweep grids can check their input before any of it loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ConfigurationError, WorkloadError

#: The six Perfect Club programs the paper evaluates (vectorization above
#: 70 %), in its customary order; :mod:`repro.workloads.perfect_club` maps
#: each to its model.
PROGRAM_NAMES = ("ARC2D", "FLO52", "BDNA", "TRFD", "DYFESM", "SPEC77")


def check_scale(scale: float) -> float:
    """Return ``scale`` if it is a finite positive number, else raise.

    The one validation of a trace scale factor: program models, sweep specs
    and service requests all call it, so NaN, infinities, zero and negative
    scales fail the same way everywhere (:class:`WorkloadError`).
    """
    if not (math.isfinite(scale) and scale > 0):
        raise WorkloadError(
            f"trace scale must be a finite positive number, got {scale!r}"
        )
    return scale


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs besides the trace and the machine.

    Attributes:
        latency: main-memory latency in cycles (the paper sweeps 1–100).
    """

    latency: int = 1

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError("memory latency cannot be negative")
