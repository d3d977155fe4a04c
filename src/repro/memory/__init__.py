"""Memory-system substrate shared by both simulated architectures.

This package models the parts of the memory system the paper's timing
arguments depend on:

* a single pipelined memory port with a shared address bus — a vector
  reference of length VL occupies the bus for exactly VL cycles (paper §4.2),
* a configurable main-memory latency seen by loads (stores never expose
  latency to the processor because the data path for stores is separate),
* a small scalar cache that services scalar references without using the
  memory port when they hit (paper §4.2 and the five-resource lower bound of
  §5),
* memory ranges and the dynamic disambiguation rule used by the decoupled
  architecture's address processor (gathers and scatters conservatively cover
  all of memory).
"""

from repro.memory.model import MemoryModel, MemoryTimings
from repro.memory.ranges import FULL_RANGE, MemoryRange
from repro.memory.scalar_cache import ScalarCache, ScalarCacheConfig

__all__ = [
    "FULL_RANGE",
    "MemoryModel",
    "MemoryRange",
    "MemoryTimings",
    "ScalarCache",
    "ScalarCacheConfig",
]
