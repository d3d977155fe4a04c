"""Dynamic instruction traces — the reproduction's substitute for Dixie.

The paper instruments Convex executables with *Dixie* to produce four traces
(basic blocks, vector-length register values, vector-stride register values
and memory reference addresses) which together describe the full dynamic
execution of a program.  Here the same information lives in a
:class:`~repro.trace.columns.ColumnarTrace`: parallel machine-typed arrays
(instruction-table index, opcode class, vector length, stride, base address,
basic-block id) over a small table of unique static instructions, with
per-instruction facts precomputed once into
:class:`~repro.trace.columns.InstructionInfo` entries.  The
record-at-a-time view — one
:class:`~repro.trace.record.DynamicInstruction` per executed instruction —
is materialized on demand for tools and tests.

Both simulators (:mod:`repro.refarch` and :mod:`repro.dva`) consume traces,
never static programs, exactly as in the paper; their hot loops read the
columns directly.
"""

from repro.trace.columns import ColumnarTrace, InstructionInfo
from repro.trace.record import DynamicInstruction, Trace
from repro.trace.generator import RegionAllocator, TraceBuilder
from repro.trace.statistics import TraceStatistics, compute_statistics

__all__ = [
    "ColumnarTrace",
    "DynamicInstruction",
    "InstructionInfo",
    "RegionAllocator",
    "Trace",
    "TraceBuilder",
    "TraceStatistics",
    "compute_statistics",
]
