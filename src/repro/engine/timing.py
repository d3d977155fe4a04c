"""The timing core: scoreboard + resource pools + stalls + completion horizon.

:class:`TimingCore` composes the engine primitives every one-pass simulator
needs.  The horizon is the latest completion any issued work has reached; a
machine's total execution time is the maximum of the horizon and whatever
per-machine pointers (dispatcher, processors, ports) are still moving.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.engine.resources import ResourcePool
from repro.engine.scoreboard import Scoreboard
from repro.engine.stalls import StallAccountant
from repro.isa.registers import RegisterClass


class TimingCore:
    """Shared mutable state of one event-driven simulation."""

    def __init__(
        self,
        default_owners: Optional[Mapping[RegisterClass, Hashable]] = None,
    ) -> None:
        self.scoreboard = Scoreboard(default_owners)
        self.stalls = StallAccountant()
        self.pools: Dict[str, ResourcePool] = {}
        self.horizon = 0

    # -- resource pools ----------------------------------------------------------------

    def add_pool(
        self,
        name: str,
        count: int = 1,
        unit_names: Optional[Sequence[str]] = None,
    ) -> ResourcePool:
        """Create and register a named :class:`ResourcePool`."""
        if name in self.pools:
            raise ConfigurationError(f"resource pool {name!r} already exists")
        pool = ResourcePool(name, count=count, unit_names=unit_names)
        self.pools[name] = pool
        return pool

    def pool(self, name: str) -> ResourcePool:
        try:
            return self.pools[name]
        except KeyError as exc:
            known = ", ".join(sorted(self.pools))
            raise ConfigurationError(
                f"unknown resource pool {name!r} (known: {known})"
            ) from exc

    # -- completion horizon ------------------------------------------------------------

    def finish_time(self, *pointers: int) -> int:
        """Total execution time: the horizon plus any still-moving pointers."""
        return max(self.horizon, *pointers) if pointers else self.horizon
