"""The scalar cache in front of the memory port.

The decoupled architecture routes scalar memory accesses through a cache that
holds only scalar data (paper §4.2); vector accesses bypass it entirely.  The
paper also counts the scalar cache as one of the five resources of its lower
bound model (§5), so the reference architecture is given the same cache.

The cache is a small direct-mapped, write-through design tracked at line
granularity.  Only addresses are modelled — no data is stored — because the
simulators only need to know whether an access hits (serviced locally in one
cycle) or misses (must use the memory port and pay main-memory latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ScalarCacheConfig:
    """Geometry and timing of the scalar cache."""

    line_bytes: int = 32
    lines: int = 1024
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("cache line size must be a positive power of two")
        if self.lines <= 0:
            raise ConfigurationError("cache must have at least one line")
        if self.hit_latency < 0:
            raise ConfigurationError("hit latency cannot be negative")


class ScalarCache:
    """A direct-mapped, write-allocate, address-only scalar cache."""

    def __init__(self, config: Optional[ScalarCacheConfig] = None) -> None:
        self.config = config if config is not None else ScalarCacheConfig()
        self._tags: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def _line_index_and_tag(self, address: int) -> tuple[int, int]:
        line_number = address // self.config.line_bytes
        return line_number % self.config.lines, line_number

    def access(self, address: int) -> bool:
        """Perform one scalar access; return ``True`` on a hit.

        Both loads and stores allocate the line: the cache is a filter in
        front of the port, not a coherence model, so the distinction does not
        affect timing beyond hit/miss.
        """
        index, tag = self._line_index_and_tag(address)
        if self._tags.get(index) == tag:
            self.hits += 1
            return True
        self._tags[index] = tag
        self.misses += 1
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        """Invalidate all lines and clear statistics."""
        self._tags.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScalarCache(lines={self.config.lines}, line_bytes={self.config.line_bytes}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
