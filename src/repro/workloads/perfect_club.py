"""Registry of the six synthetic Perfect Club program models.

The paper selects the six Perfect Club programs whose vectorization exceeds
70 % (ARC2D, FLO52, BDNA, SPEC77, TRFD and DYFESM); this module is the single
place the rest of the library looks them up.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.common.errors import WorkloadError
from repro.trace.columns import Trace
from repro.workloads.program_model import ProgramModel
from repro.workloads.programs import arc2d, bdna, dyfesm, flo52, spec77, trfd

#: Factories for the six benchmark program models, keyed by paper name.
PERFECT_CLUB_PROGRAMS: Dict[str, Callable[[], ProgramModel]] = {
    "ARC2D": arc2d.build,
    "FLO52": flo52.build,
    "BDNA": bdna.build,
    "TRFD": trfd.build,
    "DYFESM": dyfesm.build,
    "SPEC77": spec77.build,
}


def program_names() -> List[str]:
    """The benchmark program names, in the paper's customary order."""
    return list(PERFECT_CLUB_PROGRAMS)


def load_program(name: str) -> ProgramModel:
    """Build the program model for ``name`` (case-insensitive)."""
    key = name.upper()
    try:
        factory = PERFECT_CLUB_PROGRAMS[key]
    except KeyError as exc:
        known = ", ".join(PERFECT_CLUB_PROGRAMS)
        raise WorkloadError(f"unknown benchmark program {name!r} (known: {known})") from exc
    return factory()


def build_trace(name: str, scale: float = 1.0) -> Trace:
    """Convenience helper: build the trace of one benchmark program."""
    return load_program(name).build_trace(scale=scale)
