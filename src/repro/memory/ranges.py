"""Memory ranges and the disambiguation rule of the address processor.

The paper (§4.2) defines the memory range accessed by a vector reference with
base address ``BA``, vector length ``VL``, stride ``VS`` (in bytes) and access
granularity ``S`` as all locations between ``BA`` and ``BA + (VL-1)*VS + S``
(with the two terms inverted for negative strides).  Two references conflict
when their ranges overlap in at least one byte.  Gathers and scatters cannot
be characterised by a range, so they are treated as covering all of memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SimulationError
from repro.isa.registers import ELEMENT_SIZE_BYTES


@dataclass(frozen=True, slots=True)
class MemoryRange:
    """A half-open byte range ``[start, end)``; ``full`` covers all memory."""

    start: int = 0
    end: int = 0
    full: bool = False

    def __post_init__(self) -> None:
        if not self.full and self.end < self.start:
            raise SimulationError(
                f"memory range end ({self.end}) precedes start ({self.start})"
            )

    def overlaps(self, other: "MemoryRange") -> bool:
        """True when the two ranges share at least one byte."""
        if self.full or other.full:
            # A range that covers all of memory conflicts with everything,
            # including an empty range: the conservative assumption the paper
            # makes for scatters and gathers.
            return True
        return self.start < other.end and other.start < self.end

    def __str__(self) -> str:
        if self.full:
            return "[all memory]"
        return f"[0x{self.start:x}, 0x{self.end:x})"


#: Sentinel range used for gathers and scatters.
FULL_RANGE = MemoryRange(full=True)


def access_range(
    base: int,
    vector_length: int,
    stride_elements: int,
    *,
    indexed: bool = False,
) -> MemoryRange:
    """The memory range of one access, from its scalar description.

    The simulators read base/length/stride straight off trace columns.
    Strided vector references follow the paper's formula (a one-element
    reference covers one element); indexed references (gathers/scatters)
    return :data:`FULL_RANGE`.
    """
    if indexed:
        return FULL_RANGE
    if vector_length == 0:
        # A zero-length vector reference touches no memory at all.
        return MemoryRange(base, base)
    span = (vector_length - 1) * stride_elements * ELEMENT_SIZE_BYTES
    if span >= 0:
        return MemoryRange(base, base + span + ELEMENT_SIZE_BYTES)
    return MemoryRange(base + span, base + ELEMENT_SIZE_BYTES)
