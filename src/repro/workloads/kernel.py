"""The loop-kernel description language.

A :class:`LoopKernel` describes one vectorized loop nest the way a performance
model sees it: how many elements it processes, which memory streams it reads
and writes, how much vector arithmetic it performs per strip-mined iteration,
how much scalar overhead surrounds the vector work, and whether it carries the
kinds of dependences (reductions fed back through scalar registers, compiler
spill code) that determine how much decoupling can help.

The :class:`~repro.workloads.compiler.VectorizingCompiler` lowers a kernel to
Convex-style vector code; program models combine several kernels with
invocation counts to approximate whole Perfect Club programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import WorkloadError
from repro.isa.registers import VECTOR_REGISTER_LENGTH


@dataclass(frozen=True)
class VectorStream:
    """One vector memory stream accessed by a kernel.

    Attributes:
        region: name of the array (address region) being accessed.
        stride: access stride in elements (1 = unit stride).
        indexed: ``True`` for gather/scatter access through an index vector.
    """

    region: str
    stride: int = 1
    indexed: bool = False

    def __post_init__(self) -> None:
        if not self.region:
            raise WorkloadError("vector stream requires a region name")
        if self.stride == 0:
            raise WorkloadError("vector stream stride cannot be zero")


@dataclass(frozen=True)
class LoopKernel:
    """A vectorized loop nest described by its resource usage per iteration.

    One *iteration* here means one strip-mined pass over at most
    ``max_vector_length`` elements.  All ``*_per_iteration`` quantities refer
    to that strip.

    Attributes:
        name: identifier of the loop (used for labels and spill region names).
        elements: number of elements processed per invocation of the loop.
        max_vector_length: strip length; at most the 128-element register size.
        loads: vector load streams read every iteration.
        stores: vector store streams written every iteration.
        fu_any_ops: vector operations executable on either functional unit.
        fu2_ops: vector multiply/divide/sqrt operations (FU2 only).
        load_use_distance: number of vector operations scheduled *before* the
            first operation that consumes a loaded value.  A non-zero distance
            models a compiler that hoists loads to the top of the loop body so
            that even the non-decoupled machine can overlap part of the memory
            latency with independent work (how the Convex compiler schedules
            the compute-bound DYFESM loop the paper discusses in §5).
        vector_spill_pairs: vector store+reload pairs of the same register
            slot inserted per iteration (compiler spill of vector values) —
            these are the bypass opportunities of Section 7.
        scalar_spill_pairs: scalar store+reload pairs per iteration (spill of
            scalar values through the stack).
        address_ops: scalar address-arithmetic instructions per iteration
            (routed to the address processor in the decoupled machine).
        scalar_ops: scalar data-computation instructions per iteration
            (routed to the scalar processor).
        scalar_loads: scalar loads of loop-invariant data per iteration.
        scalar_stores: scalar stores per iteration.
        reduction: when ``True`` the iteration ends with a vector reduction
            producing a scalar value.
        reduction_carried: when ``True`` the reduction result feeds the next
            iteration's vector work through the scalar processor — the
            distance-1 self-dependence that forces the DYFESM loops into
            lockstep (paper §5).
        uses_scalar_operand: when ``True`` each iteration broadcasts a scalar
            produced by the scalar processor into a vector register.
    """

    name: str
    elements: int
    max_vector_length: int = VECTOR_REGISTER_LENGTH
    loads: Tuple[VectorStream, ...] = ()
    stores: Tuple[VectorStream, ...] = ()
    fu_any_ops: int = 1
    fu2_ops: int = 0
    load_use_distance: int = 0
    vector_spill_pairs: int = 0
    scalar_spill_pairs: int = 0
    address_ops: int = 2
    scalar_ops: int = 2
    scalar_loads: int = 0
    scalar_stores: int = 0
    reduction: bool = False
    reduction_carried: bool = False
    uses_scalar_operand: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("kernel requires a name")
        if self.elements <= 0:
            raise WorkloadError(f"kernel {self.name!r}: elements must be positive")
        if not 1 <= self.max_vector_length <= VECTOR_REGISTER_LENGTH:
            raise WorkloadError(
                f"kernel {self.name!r}: max vector length must be in "
                f"[1, {VECTOR_REGISTER_LENGTH}]"
            )
        if self.reduction_carried and not self.reduction:
            raise WorkloadError(
                f"kernel {self.name!r}: a carried reduction requires reduction=True"
            )
        negatives = {
            "fu_any_ops": self.fu_any_ops,
            "fu2_ops": self.fu2_ops,
            "load_use_distance": self.load_use_distance,
            "vector_spill_pairs": self.vector_spill_pairs,
            "scalar_spill_pairs": self.scalar_spill_pairs,
            "address_ops": self.address_ops,
            "scalar_ops": self.scalar_ops,
            "scalar_loads": self.scalar_loads,
            "scalar_stores": self.scalar_stores,
        }
        for field_name, value in negatives.items():
            if value < 0:
                raise WorkloadError(
                    f"kernel {self.name!r}: {field_name} cannot be negative"
                )
        if (
            self.fu_any_ops + self.fu2_ops == 0
            and not self.loads
            and not self.stores
            and self.vector_spill_pairs == 0
        ):
            raise WorkloadError(
                f"kernel {self.name!r}: kernel performs no vector work at all"
            )

    # -- derived shape -----------------------------------------------------------

    @property
    def strip_lengths(self) -> list[int]:
        """The vector lengths of the successive strips of one invocation."""
        full, remainder = divmod(self.elements, self.max_vector_length)
        lengths = [self.max_vector_length] * full
        if remainder:
            lengths.append(remainder)
        return lengths


@dataclass(frozen=True)
class KernelSchedule:
    """A kernel together with the number of times it runs in a program."""

    kernel: LoopKernel
    repetitions: int = 1

    def __post_init__(self) -> None:
        if self.repetitions <= 0:
            raise WorkloadError(
                f"kernel {self.kernel.name!r}: repetitions must be positive"
            )
