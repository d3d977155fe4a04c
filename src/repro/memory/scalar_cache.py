"""The scalar cache in front of the memory port.

The decoupled architecture routes scalar memory accesses through a cache that
holds only scalar data (paper §4.2); vector accesses bypass it entirely.  The
paper also counts the scalar cache as one of the five resources of its lower
bound model (§5), so the reference architecture is given the same cache.

The cache is a small direct-mapped, write-allocate design tracked at line
granularity.  Only addresses are modelled — no data is stored — because the
simulators only need to know whether an access hits (serviced locally) or
misses (must use the memory port and pay main-memory latency).  Its geometry
comes from the machine spec's ``cache_line`` and ``cache_lines`` fields.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import ConfigurationError


class ScalarCache:
    """A direct-mapped, write-allocate, address-only scalar cache."""

    def __init__(self, line_bytes: int, lines: int) -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ConfigurationError("cache line size must be a positive power of two")
        if lines <= 0:
            raise ConfigurationError("cache must have at least one line")
        self.line_bytes = line_bytes
        self.lines = lines
        #: Set index -> the line number it holds.
        self.tags: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Perform one scalar access; return ``True`` on a hit.

        Both loads and stores allocate the line: the cache is a filter in
        front of the port, not a coherence model, so the distinction does not
        affect timing beyond hit/miss.
        """
        line_number = address // self.line_bytes
        index = line_number % self.lines
        if self.tags.get(index) == line_number:
            self.hits += 1
            return True
        self.tags[index] = line_number
        self.misses += 1
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScalarCache(lines={self.lines}, line_bytes={self.line_bytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )
