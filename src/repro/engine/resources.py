"""The vector functional units' fixed timing, shared by both machines."""

from __future__ import annotations

from repro.common.errors import ConfigurationError

#: Pipeline depth of the vector functional units on both machines: the first
#: element of a result is available for chaining this many cycles after the
#: instruction starts (paper §2.1; the DVA's VP reuses the same units, §4.3).
FU_STARTUP = 4


def occupancy_cycles(elements: int, lanes: int = 1) -> int:
    """Cycles a ``lanes``-wide unit needs to process ``elements`` elements.

    A zero-element request still costs one cycle (issuing it), matching the
    single-lane seed behaviour of ``max(elements, 1)``.
    """
    if lanes <= 0:
        raise ConfigurationError("a vector unit needs at least one lane")
    return max(-(-max(elements, 1) // lanes), 1)
