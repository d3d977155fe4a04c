"""Whole-program workload models.

A :class:`ProgramModel` combines several loop kernels (with invocation counts)
into a stand-in for one Perfect Club program.  The model also records the
*targets* (:class:`ProgramTargets`) — the numbers the paper publishes for the
real program — in :attr:`ProgramModel.targets`, their one home.
``docs/paper-map.md`` maps the paper's sections and figures to the code that
reproduces them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import WorkloadError
from repro.core.config import check_scale
from repro.isa.builder import InstructionBuilder
from repro.isa.opcodes import Opcode
from repro.isa.registers import a_reg, s_reg
from repro.trace.generator import TraceBuilder
from repro.trace.columns import Trace
from repro.workloads.compiler import CompiledKernel, VectorizingCompiler
from repro.workloads.kernel import KernelSchedule, LoopKernel


def _scaled_invocations(repetitions: int, scale: float) -> int:
    """A schedule's invocation count at ``scale``: at least one."""
    try:
        return max(1, math.ceil(repetitions * scale))
    except OverflowError:
        raise WorkloadError(f"trace scale {scale!r} is too large") from None


@dataclass(frozen=True)
class ProgramTargets:
    """Published per-program numbers this model tries to approximate.

    All fields are optional because the paper does not publish every number
    for every program; ``None`` simply means "no target".
    """

    vectorization_percent: Optional[float] = None
    average_vector_length: Optional[float] = None
    spill_fraction: Optional[float] = None
    ref_port_idle_fraction: Optional[float] = None
    dva_speedup_at_latency_100: Optional[float] = None
    bypass_speedup_at_latency_1: Optional[float] = None
    traffic_reduction: Optional[float] = None


@dataclass
class ProgramModel:
    """A synthetic stand-in for one benchmark program."""

    name: str
    schedules: Sequence[KernelSchedule]
    description: str = ""
    targets: ProgramTargets = field(default_factory=ProgramTargets)
    prologue_scalar_instructions: int = 32

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("program model requires a name")
        if not self.schedules:
            raise WorkloadError(f"program model {self.name!r} has no kernels")
        if self.prologue_scalar_instructions < 0:
            raise WorkloadError("prologue length cannot be negative")
        # A kernel's name labels its code and regions, so one name must mean
        # one kernel; the same kernel may run in several schedules.
        kernels: Dict[str, LoopKernel] = {}
        for kernel in self.kernels:
            if kernels.setdefault(kernel.name, kernel) != kernel:
                raise WorkloadError(
                    f"program model {self.name!r} has two different kernels "
                    f"named {kernel.name!r}"
                )

    # -- trace generation ---------------------------------------------------------

    def build_trace(self, scale: float = 1.0) -> Trace:
        """Generate the dynamic trace of one run of the program.

        ``scale`` multiplies every kernel's invocation count, allowing quick
        benchmark runs (``scale < 1``) or long, paper-sized runs
        (``scale > 1``).  At least one invocation of every kernel is always
        emitted so small scales never drop a program phase entirely.
        """
        check_scale(scale)
        builder = TraceBuilder(self.name)
        self._emit_prologue(builder)
        for schedule, compiled_kernel in zip(self.schedules, self._compile()):
            invocations = _scaled_invocations(schedule.repetitions, scale)
            compiled_kernel.emit_program(builder, invocations)
        return builder.build()

    def trace_length(self, scale: float = 1.0) -> int:
        """The exact dynamic instruction count of :meth:`build_trace` at ``scale``.

        The prologue plus, per schedule, its scaled invocations times the
        compiled blocks of one invocation's strips: the kernels are
        compiled but no trace row is emitted, so callers can rank the
        *cost* of simulating a cell (the cell scheduler submits the
        costliest batch first) and refuse an oversized trace before any
        trace exists.
        """
        check_scale(scale)
        total = self.prologue_scalar_instructions
        for schedule, compiled in zip(self.schedules, self._compile()):
            invocations = _scaled_invocations(schedule.repetitions, scale)
            total += invocations * sum(
                len(compiled.block_for_length(length)) for length in compiled.strip_lengths
            )
        return total

    def _compile(self) -> List[CompiledKernel]:
        """Every schedule's kernel, compiled in schedule order."""
        compiler = VectorizingCompiler()
        return [compiler.compile(schedule.kernel) for schedule in self.schedules]

    def _emit_prologue(self, builder: TraceBuilder) -> None:
        """Emit the scalar start-up code every real program executes once."""
        if self.prologue_scalar_instructions == 0:
            return
        emit = InstructionBuilder(label_prefix="prologue")
        for index in range(self.prologue_scalar_instructions):
            if index % 8 == 7:
                emit.scalar_load(s_reg(index % 4), f"{self.name}.globals")
            elif index % 8 == 3:
                emit.scalar_op(Opcode.S_LI, a_reg(index % 6), immediate=index)
            else:
                emit.scalar_op(Opcode.S_ADD, s_reg(index % 6), [s_reg((index + 1) % 6)])
        builder.append_block(emit.instructions)

    # -- descriptive helpers ------------------------------------------------------

    @property
    def kernels(self):
        return [schedule.kernel for schedule in self.schedules]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kernel_names = ", ".join(kernel.name for kernel in self.kernels)
        return f"ProgramModel(name={self.name!r}, kernels=[{kernel_names}])"
