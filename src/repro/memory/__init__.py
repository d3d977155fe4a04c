"""Memory-system substrate shared by both simulated architectures.

This package models the parts of the memory system the paper's timing
arguments depend on beyond the fixed bus arithmetic of
:mod:`repro.engine.memory`:

* a small scalar cache that services scalar references without using the
  memory port when they hit (paper §4.2 and the five-resource lower bound of
  §5),
* memory ranges and the dynamic disambiguation rule used by the decoupled
  architecture's address processor (gathers and scatters conservatively cover
  all of memory), in :mod:`repro.memory.ranges`.
"""

from repro.memory.scalar_cache import ScalarCache

__all__ = [
    "ScalarCache",
]
