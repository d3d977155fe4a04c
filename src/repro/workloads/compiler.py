"""A small vectorizing compiler for loop kernels.

The compiler lowers a :class:`~repro.workloads.kernel.LoopKernel` to the
Convex-style ISA the way the paper's Fortran compiler lowers a vectorizable
loop: the loop is strip-mined to the 128-element vector registers, every strip
iteration sets the vector length, performs its scalar address arithmetic,
streams its operands in with vector loads, computes, spills and reloads
intermediate values when asked to, stores its results and executes the scalar
loop control.

The output has two halves:

* one basic block — a tuple of static
  :class:`~repro.isa.instruction.Instruction` records — per distinct strip
  length, exactly as Dixie would see basic blocks in the executable, and
* an emission routine that replays those blocks into a
  :class:`~repro.trace.generator.TraceBuilder`, advancing the memory streams
  so every executed instance carries a concrete base address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.errors import WorkloadError
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import (
    ADDRESS_REGISTER_COUNT,
    Register,
    SCALAR_REGISTER_COUNT,
    VECTOR_REGISTER_COUNT,
    a_reg,
    s_reg,
    v_reg,
)
from repro.trace.generator import TraceBuilder
from repro.workloads.kernel import LoopKernel

#: Scalar register reserved for reduction accumulators (kept live across strips).
_ACCUMULATOR = s_reg(7)

#: Address register reserved for the loop induction variable.
_INDUCTION = a_reg(7)

#: Address register reserved for the loop-bound comparison result.
_LOOP_CONDITION = a_reg(6)

#: A basic block: straight-line static instructions, replayed as a unit.
Block = Tuple[Instruction, ...]


@dataclass
class CompiledKernel:
    """The result of compiling one loop kernel."""

    kernel: LoopKernel
    blocks: Dict[int, Block] = field(default_factory=dict)
    stream_bases: Dict[str, Register] = field(default_factory=dict)

    def block_for_length(self, vector_length: int) -> Block:
        """The basic block that executes one strip of ``vector_length`` elements."""
        try:
            return self.blocks[vector_length]
        except KeyError as exc:
            raise WorkloadError(
                f"kernel {self.kernel.name!r} was not compiled for strip length "
                f"{vector_length}"
            ) from exc

    @property
    def strip_lengths(self) -> List[int]:
        return self.kernel.strip_lengths

    def emit_invocation(self, builder: TraceBuilder) -> None:
        """Replay one full invocation of the kernel into a trace builder."""
        builder.mark_invocation(self.kernel)
        elements_done = 0
        for strip_length in self.strip_lengths:
            offsets = self._stream_offsets(elements_done)
            builder.append_block(self.block_for_length(strip_length), offsets)
            elements_done += strip_length

    def emit_program(self, builder: TraceBuilder, invocations: int) -> None:
        """Replay ``invocations`` invocations of the kernel.

        Every invocation replays the same blocks at the same offsets, so once
        one leaves the builder's vector-length register as it found it, the
        rest are copies of it: :meth:`TraceBuilder.repeat_invocation` appends
        them without emitting them.  The stream is the one a loop of
        :meth:`emit_invocation` produces.
        """
        for emitted in range(1, invocations + 1):
            entry = builder.vector_length
            self.emit_invocation(builder)
            if builder.vector_length == entry:
                builder.repeat_invocation(invocations - emitted)
                return

    def _stream_offsets(self, elements_done: int) -> Dict[str, int]:
        """Element offsets for every data stream at a given strip position.

        Data streams advance through their arrays as the loop progresses
        (scaled by their stride); spill slots always reuse the same stack
        location, which is what makes them bypassable store/reload pairs.
        """
        offsets: Dict[str, int] = {}
        for stream in tuple(self.kernel.loads) + tuple(self.kernel.stores):
            offsets[self._region(stream.region)] = elements_done * abs(stream.stride)
        return offsets

    def _region(self, stream_region: str) -> str:
        return f"{self.kernel.name}.{stream_region}"


class VectorizingCompiler:
    """Lowers loop kernels into Convex-style vector code."""

    def __init__(self) -> None:
        #: Every block compiled so far, by label (``{kernel}.strip{length}``).
        self.blocks: Dict[str, Block] = {}

    def compile(self, kernel: LoopKernel) -> CompiledKernel:
        """Compile ``kernel``; a kernel of a name compiled before reuses its blocks.

        A name therefore stands for one kernel: :class:`ProgramModel
        <repro.workloads.program_model.ProgramModel>` rejects two different
        kernels of one name.
        """
        compiled = CompiledKernel(kernel=kernel)
        compiled.stream_bases = self._assign_stream_bases(kernel)
        for strip_length in sorted(set(kernel.strip_lengths)):
            label = f"{kernel.name}.strip{strip_length}"
            block = self.blocks.get(label)
            if block is None:
                block = self.blocks[label] = self._lower_strip(
                    kernel, compiled.stream_bases, strip_length
                )
            compiled.blocks[strip_length] = block
        return compiled

    # -- lowering ------------------------------------------------------------------

    def _assign_stream_bases(self, kernel: LoopKernel) -> Dict[str, Register]:
        """Give every memory stream a base-address register (round robin)."""
        bases: Dict[str, Register] = {}
        # a6/a7 are reserved for loop control, so streams use a0..a5.
        available = [a_reg(i) for i in range(ADDRESS_REGISTER_COUNT - 2)]
        streams = list(kernel.loads) + list(kernel.stores)
        for index, stream in enumerate(streams):
            bases[stream.region] = available[index % len(available)]
        return bases

    def _lower_strip(
        self,
        kernel: LoopKernel,
        stream_bases: Dict[str, Register],
        strip_length: int,
    ) -> Block:
        emit = InstructionBuilder(label_prefix=kernel.name)
        vector_pool = _RoundRobin([v_reg(i) for i in range(VECTOR_REGISTER_COUNT)])
        scalar_pool = _RoundRobin([s_reg(i) for i in range(SCALAR_REGISTER_COUNT - 1)])

        emit.set_vector_length(strip_length)

        # Loads are issued as early as possible (right after the addressing
        # they depend on) so the memory port starts streaming while the scalar
        # overhead of the iteration dispatches underneath it — the schedule a
        # vectorizing compiler produces for a single-port machine.
        self._emit_address_arithmetic(kernel, stream_bases, emit)
        values = self._emit_vector_loads(kernel, stream_bases, emit, vector_pool)
        last_scalar = self._emit_scalar_work(kernel, emit, scalar_pool)
        if kernel.uses_scalar_operand:
            operand = emit.splat(vector_pool.take(), last_scalar, label="splat")
            values.append(operand.destinations[0])

        results = self._emit_vector_compute(kernel, emit, vector_pool, values)
        self._emit_vector_spill(kernel, emit, vector_pool, results)
        if kernel.reduction:
            self._emit_reduction(kernel, emit, results)
        self._emit_vector_stores(kernel, stream_bases, emit, results)
        self._emit_loop_control(emit)
        return tuple(emit.instructions)

    def _emit_address_arithmetic(
        self,
        kernel: LoopKernel,
        stream_bases: Dict[str, Register],
        emit: InstructionBuilder,
    ) -> None:
        base_registers = list(dict.fromkeys(stream_bases.values()))
        if kernel.reduction_carried:
            # The next strip's addressing consumes the scalar accumulator
            # produced by the scalar processor: this is the distance-1
            # dependence that forces the DYFESM reduction loops into lockstep.
            target = base_registers[0] if base_registers else _INDUCTION
            emit.scalar_op(
                Opcode.S_MOV, target, [_ACCUMULATOR], label="carried_address"
            )
        for index in range(kernel.address_ops):
            if base_registers:
                register = base_registers[index % len(base_registers)]
            else:
                register = _INDUCTION
            emit.scalar_op(Opcode.S_ADD, register, [register], label="addr")

    def _emit_scalar_work(
        self, kernel: LoopKernel, emit: InstructionBuilder, scalar_pool: "_RoundRobin"
    ) -> Register:
        """Emit the scalar-side work of one strip; return the last value written."""
        for _ in range(kernel.scalar_loads):
            emit.scalar_load(scalar_pool.take(), f"{kernel.name}.sdata")
        previous = scalar_pool.peek()
        for index in range(kernel.scalar_ops):
            destination = scalar_pool.take()
            opcode = Opcode.S_FMUL if index % 2 else Opcode.S_FADD
            emit.scalar_op(opcode, destination, [previous], label="scalar")
            previous = destination
        for index in range(kernel.scalar_spill_pairs):
            region = f"spill.{kernel.name}.s{index}"
            emit.scalar_store(previous, region, is_spill=True)
            reloaded = scalar_pool.take()
            emit.scalar_load(reloaded, region, is_spill=True)
            previous = reloaded
        for _ in range(kernel.scalar_stores):
            emit.scalar_store(previous, f"{kernel.name}.sdata")
        return previous

    def _emit_vector_loads(
        self,
        kernel: LoopKernel,
        stream_bases: Dict[str, Register],
        emit: InstructionBuilder,
        vector_pool: "_RoundRobin",
    ) -> List[Register]:
        values: List[Register] = []
        for stream in kernel.loads:
            if abs(stream.stride) != 1:
                emit.set_vector_stride(stream.stride)
            destination = vector_pool.take()
            emit.vector_load(
                destination,
                f"{kernel.name}.{stream.region}",
                stride=stream.stride,
                indexed=stream.indexed,
                base=stream_bases.get(stream.region),
                label=f"load_{stream.region}",
            )
            values.append(destination)
            if abs(stream.stride) != 1:
                emit.set_vector_stride(1)
        return values

    def _emit_vector_compute(
        self,
        kernel: LoopKernel,
        emit: InstructionBuilder,
        vector_pool: "_RoundRobin",
        values: List[Register],
    ) -> List[Register]:
        loaded = list(values)
        independent: List[Register] = []
        if not loaded or kernel.load_use_distance > 0:
            # Either there is nothing to load from, or the schedule wants some
            # operations that do not touch loaded values: seed an independent
            # value with a splat of a scalar constant.
            seed = emit.splat(vector_pool.take(), s_reg(0), label="seed")
            independent.append(seed.destinations[0])
        results: List[Register] = loaded + independent

        fu_any_cycle = [Opcode.V_ADD, Opcode.V_SUB, Opcode.V_MAX, Opcode.V_AND]
        fu_any_plan = [
            fu_any_cycle[index % len(fu_any_cycle)] for index in range(kernel.fu_any_ops)
        ]
        fu2_plan = [Opcode.V_MUL] * kernel.fu2_ops
        # Interleave FU2-only and FU1-capable work the way a scheduler would,
        # so both units can be kept busy simultaneously.
        plan: List[Opcode] = []
        for index in range(max(len(fu_any_plan), len(fu2_plan))):
            if index < len(fu2_plan):
                plan.append(fu2_plan[index])
            if index < len(fu_any_plan):
                plan.append(fu_any_plan[index])

        unconsumed_loads = list(loaded)
        for index, opcode in enumerate(plan):
            before_load_use = bool(index < kernel.load_use_distance and independent)
            if before_load_use:
                pool = independent
                first = pool[index % len(pool)]
                second = pool[(index + 1) % len(pool)]
            elif unconsumed_loads:
                # Consume every loaded value exactly once before recombining
                # intermediate results, as a scheduler filling both units
                # would.  The first consuming operation takes the two
                # earliest-loaded values so the compute chain (and therefore
                # any chained store) can start as soon as those loads finish,
                # rather than waiting for the last operand stream.
                first = unconsumed_loads.pop(0)
                if index == kernel.load_use_distance and len(unconsumed_loads) > 0:
                    second = unconsumed_loads.pop(0)
                else:
                    second = results[-1]
            else:
                first = results[index % len(results)]
                second = results[(index + 1) % len(results)]
            destination = vector_pool.take()
            emit.vector_op(opcode, destination, [first, second], label=f"op{index}")
            results.append(destination)
            if before_load_use:
                independent.append(destination)
        return results

    def _emit_vector_spill(
        self,
        kernel: LoopKernel,
        emit: InstructionBuilder,
        vector_pool: "_RoundRobin",
        results: List[Register],
    ) -> None:
        for index in range(kernel.vector_spill_pairs):
            region = f"spill.{kernel.name}.v{index}"
            victim = results[index % len(results)]
            emit.vector_store(victim, region, is_spill=True, label=f"spill_store{index}")
            # Some unrelated work typically sits between the spill and the
            # reload; the reload then feeds later computation.
            filler = vector_pool.take()
            emit.vector_op(Opcode.V_ADD, filler, [results[-1], results[-1]], label="spill_filler")
            reload = vector_pool.take()
            emit.vector_load(reload, region, is_spill=True, label=f"spill_reload{index}")
            combined = vector_pool.take()
            emit.vector_op(Opcode.V_ADD, combined, [reload, filler], label="spill_use")
            results.append(combined)

    def _emit_reduction(
        self, kernel: LoopKernel, emit: InstructionBuilder, results: List[Register]
    ) -> None:
        emit.vector_reduce(Opcode.V_SUM, s_reg(6), results[-1], label="reduce")
        # Fold the partial sum into the running accumulator on the scalar side.
        emit.scalar_op(Opcode.S_FADD, _ACCUMULATOR, [_ACCUMULATOR, s_reg(6)], label="acc")

    def _emit_vector_stores(
        self,
        kernel: LoopKernel,
        stream_bases: Dict[str, Register],
        emit: InstructionBuilder,
        results: List[Register],
    ) -> None:
        for index, stream in enumerate(kernel.stores):
            if abs(stream.stride) != 1:
                emit.set_vector_stride(stream.stride)
            value = results[-(index % len(results)) - 1]
            emit.vector_store(
                value,
                f"{kernel.name}.{stream.region}",
                stride=stream.stride,
                indexed=stream.indexed,
                base=stream_bases.get(stream.region),
                label=f"store_{stream.region}",
            )
            if abs(stream.stride) != 1:
                emit.set_vector_stride(1)

    def _emit_loop_control(self, emit: InstructionBuilder) -> None:
        emit.scalar_op(Opcode.S_ADD, _INDUCTION, [_INDUCTION], label="induction")
        emit.scalar_op(Opcode.S_CMP, _LOOP_CONDITION, [_INDUCTION], label="compare")
        emit.branch(_LOOP_CONDITION, label="loop_branch")


class _RoundRobin:
    """Round-robin register chooser used during lowering."""

    def __init__(self, registers: List[Register]) -> None:
        if not registers:
            raise WorkloadError("round-robin pool requires at least one register")
        self._registers = registers
        self._next = 0

    def take(self) -> Register:
        register = self._registers[self._next]
        self._next = (self._next + 1) % len(self._registers)
        return register

    def peek(self) -> Register:
        return self._registers[self._next]
