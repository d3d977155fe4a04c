"""The per-cell run configuration every architecture's ``simulate`` takes.

The machine itself is a :class:`~repro.core.machine.MachineSpec`; a
:class:`RunConfig` carries the one remaining input of a sweep cell besides
the trace: the memory latency under study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


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
