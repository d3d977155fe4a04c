"""Memory ranges and the disambiguation rule of the address processor.

The paper (§4.2) defines the memory range accessed by a vector reference with
base address ``BA``, vector length ``VL``, stride ``VS`` (in bytes) and access
granularity ``S`` as all locations between ``BA`` and ``BA + (VL-1)*VS + S``
(with the two terms inverted for negative strides).  Two references conflict
when their ranges overlap in at least one byte.  Gathers and scatters cannot
be characterised by a range, so they are treated as covering all of memory.

A range is two ints, the half-open byte interval ``[start, end)``: the
decoupled machine's memory pipeline takes one per memory reference, so it
builds no object for it.
"""

from __future__ import annotations

from typing import Tuple

from repro.isa.registers import ELEMENT_SIZE_BYTES

#: The bounds of a gather or scatter.  Trace bases and strides are 64-bit
#: columns and a vector holds at most 128 elements, so every strided range
#: lies within ``±2**75``; these bounds lie strictly outside it and overlap
#: every range, including an empty one — the conservative assumption the
#: paper makes for scatters and gathers.
INDEXED_BOUNDS = (-(1 << 96), 1 << 96)


def overlaps(start: int, end: int, other_start: int, other_end: int) -> bool:
    """True when ``[start, end)`` and ``[other_start, other_end)`` share a byte.

    The disambiguation rule; :data:`INDEXED_BOUNDS` overlap everything.
    """
    return start < other_end and other_start < end


def access_range(
    base: int,
    vector_length: int,
    stride_elements: int,
    *,
    indexed: bool = False,
) -> Tuple[int, int]:
    """The ``(start, end)`` memory range of one access, from its scalar description.

    The simulators read base/length/stride straight off trace columns.
    Strided vector references follow the paper's formula (a one-element
    reference covers one element); indexed references (gathers/scatters)
    return :data:`INDEXED_BOUNDS`.
    """
    if indexed:
        return INDEXED_BOUNDS
    if vector_length == 0:
        # A zero-length vector reference touches no memory at all.
        return base, base
    span = (vector_length - 1) * stride_elements * ELEMENT_SIZE_BYTES
    if span >= 0:
        return base, base + span + ELEMENT_SIZE_BYTES
    return base + span, base + ELEMENT_SIZE_BYTES
