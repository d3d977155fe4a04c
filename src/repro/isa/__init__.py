"""A Convex C34-style vector instruction set model.

The paper evaluates its decoupled architecture on binaries produced by the
Convex Fortran compiler for the C3400, a single-memory-port register-based
vector machine.  This package models the *architectural* features of that
instruction set that the simulators care about:

* scalar address (``A``) and scalar data (``S``) registers,
* eight vector (``V``) registers of 128 × 64-bit elements,
* a vector length register and a vector stride register,
* vector arithmetic split between a restricted unit (FU1 — everything except
  multiply, divide and square root) and a general unit (FU2),
* vector memory instructions (unit-stride, strided, gather/scatter) that use
  the single memory port.

Numeric values are never computed: like the Dixie traces the paper uses, an
instruction only carries the information that affects *timing* — its opcode
class, register operands, vector length, stride and base address.
"""

from repro.isa.instruction import Instruction, MemoryOperand
from repro.isa.opcodes import Opcode, OpcodeClass
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import (
    Register,
    RegisterClass,
    RegisterFile,
    VECTOR_REGISTER_COUNT,
    VECTOR_REGISTER_LENGTH,
    a_reg,
    s_reg,
    v_reg,
)
from repro.isa.builder import InstructionBuilder

__all__ = [
    "BasicBlock",
    "Instruction",
    "InstructionBuilder",
    "MemoryOperand",
    "Opcode",
    "OpcodeClass",
    "Program",
    "Register",
    "RegisterClass",
    "RegisterFile",
    "VECTOR_REGISTER_COUNT",
    "VECTOR_REGISTER_LENGTH",
    "a_reg",
    "s_reg",
    "v_reg",
]
