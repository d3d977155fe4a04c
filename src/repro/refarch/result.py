"""Results produced by the reference architecture simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.engine.result import MachineResult


@dataclass(kw_only=True)
class ReferenceResult(MachineResult):
    """Everything the reference simulator measures in one run.

    Beyond the shared :class:`~repro.engine.result.MachineResult`
    measurements: the vector/scalar instruction split, the dispatcher's
    stall cycles and the cycles charged to each stall category.
    """

    vector_instructions: int
    dispatch_stall_cycles: int = 0
    category_cycles: Dict[str, int] = field(default_factory=dict)

    @property
    def scalar_instructions(self) -> int:
        """Every instruction that is not a vector instruction."""
        return self.instructions - self.vector_instructions

    def to_json(self) -> Dict[str, object]:
        accesses = self.scalar_cache_hits + self.scalar_cache_misses
        return {
            **super().to_json(),
            "scalar_cache_hit_rate": (
                round(self.scalar_cache_hits / accesses, 4) if accesses else 0.0
            ),
            "vector_instructions": self.vector_instructions,
            "scalar_instructions": self.scalar_instructions,
            "dispatch_stall_cycles": self.dispatch_stall_cycles,
            "category_cycles": dict(self.category_cycles),
        }
