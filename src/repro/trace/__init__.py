"""Dynamic instruction traces — the reproduction's substitute for Dixie.

The paper instruments Convex executables with *Dixie* to produce four traces
(basic blocks, vector-length register values, vector-stride register values
and memory reference addresses) which together describe the full dynamic
execution of a program.  Here the same information lives in one
:class:`~repro.trace.columns.Trace`: the count of basic blocks executed plus
four parallel machine-typed columns (instruction-table index, vector length,
stride, base address) over a small table of unique static instructions, with
per-instruction facts precomputed once into
:class:`~repro.trace.columns.InstructionInfo` entries.

Both simulators (:mod:`repro.refarch` and :mod:`repro.dva`) consume traces,
never static programs, exactly as in the paper; their hot loops read the
columns directly.
"""

from repro.trace.columns import InstructionInfo, Trace
from repro.trace.generator import RegionAllocator, TraceBuilder
from repro.trace.statistics import TraceStatistics, compute_statistics

__all__ = [
    "InstructionInfo",
    "RegionAllocator",
    "Trace",
    "TraceBuilder",
    "TraceStatistics",
    "compute_statistics",
]
