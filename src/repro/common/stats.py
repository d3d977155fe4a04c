"""Small statistics helpers shared across the library."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple


class Histogram:
    """An integer-keyed histogram with integer weights.

    Used for queue-occupancy distributions (Figure 6) and vector-length
    distributions of workloads.
    """

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def add(self, key: int, weight: int = 1) -> None:
        """Add ``weight`` observations of ``key``."""
        if weight == 0:
            return
        self._counts[key] = self._counts.get(key, 0) + weight

    def count(self, key: int) -> int:
        """Number of observations recorded for ``key``."""
        return self._counts.get(key, 0)

    def total(self) -> int:
        """Total weight across all keys."""
        return sum(self._counts.values())

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._counts.items()))

    def max_key(self) -> int:
        """Largest key with a non-zero count (0 for an empty histogram)."""
        return max(self._counts, default=0)

    def mean(self) -> float:
        """Weighted mean of the keys."""
        total = self.total()
        if total == 0:
            return 0.0
        return sum(key * count for key, count in self._counts.items()) / total

    def as_dict(self) -> Dict[int, int]:
        """A plain ``dict`` copy of the histogram contents."""
        return dict(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self._counts == other._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({dict(sorted(self._counts.items()))!r})"
