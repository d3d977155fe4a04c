"""A small fluent builder for emitting instruction sequences.

The vectorizing compiler in :mod:`repro.workloads.compiler` uses the builder
to lower loop kernels into basic blocks — tuples of instructions — without
repeating operand plumbing at every emission site.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.isa.instruction import Instruction, MemoryOperand
from repro.isa.opcodes import Opcode
from repro.isa.registers import Register, VL_REGISTER, VS_REGISTER


class InstructionBuilder:
    """Accumulates instructions into :attr:`instructions`, in emission order."""

    def __init__(self, label_prefix: str = "") -> None:
        self.instructions: List[Instruction] = []
        self.label_prefix = label_prefix

    # -- low-level emission --------------------------------------------------

    def emit(
        self,
        opcode: Opcode,
        destinations: Sequence[Register] = (),
        sources: Sequence[Register] = (),
        memory: Optional[MemoryOperand] = None,
        immediate: Optional[int] = None,
        label: str = "",
    ) -> Instruction:
        """Emit one instruction and return it."""
        instruction = Instruction(
            opcode,
            tuple(destinations),
            tuple(sources),
            memory,
            immediate,
            self._compose_label(label),
        )
        self.instructions.append(instruction)
        return instruction

    def _compose_label(self, label: str) -> str:
        if label and self.label_prefix:
            return f"{self.label_prefix}.{label}"
        return label or self.label_prefix

    # -- vector control -------------------------------------------------------

    def set_vector_length(self, length: int) -> Instruction:
        """Set the vector length register to ``length`` elements."""
        return self.emit(Opcode.SET_VL, destinations=[VL_REGISTER], immediate=length)

    def set_vector_stride(self, stride: int) -> Instruction:
        """Set the vector stride register to ``stride`` elements."""
        return self.emit(Opcode.SET_VS, destinations=[VS_REGISTER], immediate=stride)

    # -- vector memory --------------------------------------------------------

    def vector_load(
        self,
        destination: Register,
        region: str,
        stride: int = 1,
        is_spill: bool = False,
        indexed: bool = False,
        base: Optional[Register] = None,
        label: str = "",
    ) -> Instruction:
        """Emit a vector load (or gather when ``indexed``).

        ``base`` optionally names the address register holding the stream's
        base pointer, creating the address dependence a real loop carries.
        """
        opcode = Opcode.V_GATHER if indexed else Opcode.V_LOAD
        memory = MemoryOperand(region=region, stride=stride, is_spill=is_spill, indexed=indexed)
        sources = [VL_REGISTER, VS_REGISTER]
        if base is not None:
            sources.insert(0, base)
        return self.emit(
            opcode,
            destinations=[destination],
            sources=sources,
            memory=memory,
            label=label,
        )

    def vector_store(
        self,
        source: Register,
        region: str,
        stride: int = 1,
        is_spill: bool = False,
        indexed: bool = False,
        base: Optional[Register] = None,
        label: str = "",
    ) -> Instruction:
        """Emit a vector store (or scatter when ``indexed``)."""
        opcode = Opcode.V_SCATTER if indexed else Opcode.V_STORE
        memory = MemoryOperand(region=region, stride=stride, is_spill=is_spill, indexed=indexed)
        sources = [source, VL_REGISTER, VS_REGISTER]
        if base is not None:
            sources.insert(1, base)
        return self.emit(
            opcode,
            sources=sources,
            memory=memory,
            label=label,
        )

    # -- vector compute -------------------------------------------------------

    def vector_op(
        self,
        opcode: Opcode,
        destination: Register,
        sources: Sequence[Register],
        label: str = "",
    ) -> Instruction:
        """Emit a register-to-register vector operation."""
        return self.emit(
            opcode,
            destinations=[destination],
            sources=list(sources) + [VL_REGISTER],
            label=label,
        )

    def vector_reduce(
        self,
        opcode: Opcode,
        destination: Register,
        source: Register,
        label: str = "",
    ) -> Instruction:
        """Emit a reduction producing a scalar register from a vector register."""
        return self.emit(
            opcode,
            destinations=[destination],
            sources=[source, VL_REGISTER],
            label=label,
        )

    def splat(self, destination: Register, source: Register, label: str = "") -> Instruction:
        """Broadcast a scalar register into a vector register."""
        return self.emit(
            Opcode.V_SPLAT,
            destinations=[destination],
            sources=[source, VL_REGISTER],
            label=label,
        )

    # -- scalar ---------------------------------------------------------------

    def scalar_op(
        self,
        opcode: Opcode,
        destination: Optional[Register],
        sources: Sequence[Register] = (),
        immediate: Optional[int] = None,
        label: str = "",
    ) -> Instruction:
        """Emit a scalar computation instruction."""
        destinations = [destination] if destination is not None else []
        return self.emit(
            opcode,
            destinations=destinations,
            sources=sources,
            immediate=immediate,
            label=label,
        )

    def scalar_load(
        self,
        destination: Register,
        region: str,
        is_spill: bool = False,
        label: str = "",
    ) -> Instruction:
        """Emit a scalar load."""
        return self.emit(
            Opcode.S_LOAD,
            destinations=[destination],
            memory=MemoryOperand(region=region, stride=1, is_spill=is_spill),
            label=label,
        )

    def scalar_store(
        self,
        source: Register,
        region: str,
        is_spill: bool = False,
        label: str = "",
    ) -> Instruction:
        """Emit a scalar store."""
        return self.emit(
            Opcode.S_STORE,
            sources=[source],
            memory=MemoryOperand(region=region, stride=1, is_spill=is_spill),
            label=label,
        )

    # -- control --------------------------------------------------------------

    def branch(self, condition: Register, label: str = "") -> Instruction:
        """Emit a conditional branch reading ``condition``."""
        return self.emit(Opcode.BRANCH, sources=[condition], label=label)

    def jump(self, label: str = "") -> Instruction:
        """Emit an unconditional jump."""
        return self.emit(Opcode.JUMP, label=label)
