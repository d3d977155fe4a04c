"""Parametric synthetic kernels.

These are the classic vector kernels used throughout the examples, the unit
tests and the ablation benchmarks.  They are deliberately simple: each factory
returns a :class:`~repro.workloads.kernel.LoopKernel` whose resource balance
is obvious from its definition, which makes them ideal for checking that the
simulators respond to memory-boundness, compute-boundness, spill code and
reductions the way the paper describes.
"""

from __future__ import annotations

from repro.isa.registers import VECTOR_REGISTER_LENGTH
from repro.workloads.kernel import LoopKernel, VectorStream
from repro.workloads.program_model import ProgramModel, ProgramTargets
from repro.workloads.kernel import KernelSchedule


def daxpy(
    elements: int = 1024,
    max_vector_length: int = VECTOR_REGISTER_LENGTH,
) -> LoopKernel:
    """``y[i] = a * x[i] + y[i]`` — one multiply, one add, two loads, one store."""
    return LoopKernel(
        name="daxpy",
        elements=elements,
        max_vector_length=max_vector_length,
        loads=(VectorStream("x"), VectorStream("y")),
        stores=(VectorStream("y"),),
        fu_any_ops=1,
        fu2_ops=1,
        uses_scalar_operand=True,
        address_ops=2,
        scalar_ops=1,
    )


def stream_triad(
    elements: int = 2048,
    max_vector_length: int = VECTOR_REGISTER_LENGTH,
) -> LoopKernel:
    """``a[i] = b[i] + s * c[i]`` — the memory-bound STREAM triad."""
    return LoopKernel(
        name="stream_triad",
        elements=elements,
        max_vector_length=max_vector_length,
        loads=(VectorStream("b"), VectorStream("c")),
        stores=(VectorStream("a"),),
        fu_any_ops=1,
        fu2_ops=1,
        uses_scalar_operand=True,
        address_ops=3,
        scalar_ops=1,
    )


def stencil3(
    elements: int = 1024,
    max_vector_length: int = VECTOR_REGISTER_LENGTH,
) -> LoopKernel:
    """A three-point stencil: three shifted loads, one store, a few adds."""
    return LoopKernel(
        name="stencil3",
        elements=elements,
        max_vector_length=max_vector_length,
        loads=(VectorStream("u_left"), VectorStream("u_mid"), VectorStream("u_right")),
        stores=(VectorStream("u_out"),),
        fu_any_ops=3,
        fu2_ops=1,
        address_ops=3,
        scalar_ops=2,
    )


def compute_bound(
    elements: int = 1024,
    max_vector_length: int = VECTOR_REGISTER_LENGTH,
    fu_ops: int = 10,
) -> LoopKernel:
    """A kernel dominated by vector arithmetic rather than memory traffic."""
    return LoopKernel(
        name="compute_bound",
        elements=elements,
        max_vector_length=max_vector_length,
        loads=(VectorStream("x"),),
        stores=(VectorStream("y"),),
        fu_any_ops=(fu_ops + 1) // 2,
        fu2_ops=fu_ops // 2,
        load_use_distance=max(fu_ops // 2 - 1, 0),
        address_ops=2,
        scalar_ops=2,
    )


def reduction(
    elements: int = 1024,
    max_vector_length: int = VECTOR_REGISTER_LENGTH,
    carried: bool = False,
) -> LoopKernel:
    """A dot-product style reduction, optionally carried across iterations."""
    return LoopKernel(
        name="reduction_carried" if carried else "reduction",
        elements=elements,
        max_vector_length=max_vector_length,
        loads=(VectorStream("x"), VectorStream("y")),
        fu2_ops=1,
        reduction=True,
        reduction_carried=carried,
        address_ops=2,
        scalar_ops=2,
    )


def spill_heavy(
    elements: int = 1024,
    max_vector_length: int = VECTOR_REGISTER_LENGTH,
    spill_pairs: int = 2,
) -> LoopKernel:
    """A register-starved loop that spills and reloads vector temporaries."""
    return LoopKernel(
        name="spill_heavy",
        elements=elements,
        max_vector_length=max_vector_length,
        loads=(VectorStream("x"), VectorStream("y")),
        stores=(VectorStream("z"),),
        fu_any_ops=2,
        fu2_ops=2,
        vector_spill_pairs=spill_pairs,
        address_ops=3,
        scalar_ops=2,
    )


def gather_scatter(
    elements: int = 512,
    max_vector_length: int = VECTOR_REGISTER_LENGTH,
) -> LoopKernel:
    """An indexed (gather/scatter) kernel that defeats range disambiguation."""
    return LoopKernel(
        name="gather_scatter",
        elements=elements,
        max_vector_length=max_vector_length,
        loads=(VectorStream("idx"), VectorStream("table", indexed=True)),
        stores=(VectorStream("out", indexed=True),),
        fu_any_ops=2,
        address_ops=3,
        scalar_ops=2,
    )


def strided(
    elements: int = 1024,
    stride: int = 4,
    max_vector_length: int = VECTOR_REGISTER_LENGTH,
) -> LoopKernel:
    """A column-access kernel with non-unit stride."""
    return LoopKernel(
        name="strided",
        elements=elements,
        max_vector_length=max_vector_length,
        loads=(VectorStream("matrix", stride=stride),),
        stores=(VectorStream("column", stride=1),),
        fu_any_ops=2,
        address_ops=3,
        scalar_ops=1,
    )


def simple_program(
    name: str = "synthetic",
    elements: int = 1024,
    max_vector_length: int = VECTOR_REGISTER_LENGTH,
    repetitions: int = 4,
) -> ProgramModel:
    """A small two-kernel program useful for quick end-to-end runs."""
    return ProgramModel(
        name=name,
        description="Synthetic two-kernel program (stream triad + daxpy).",
        schedules=(
            KernelSchedule(stream_triad(elements, max_vector_length), repetitions),
            KernelSchedule(daxpy(elements, max_vector_length), repetitions),
        ),
        targets=ProgramTargets(),
        prologue_scalar_instructions=16,
    )
