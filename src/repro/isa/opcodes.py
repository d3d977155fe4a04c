"""Opcode definitions and their architectural classification.

The classification answers the questions the simulators ask of every
instruction:

* whether only the general-purpose vector unit (FU2) can run it, and
* whether it reads or writes memory, so the decoupled fetch processor knows
  which stream to route it to (paper §4.1).
"""

from __future__ import annotations

from enum import Enum, unique
from functools import lru_cache


@unique
class OpcodeClass(Enum):
    """Broad instruction categories used for routing and accounting."""

    SCALAR_COMPUTE = "scalar_compute"
    SCALAR_MEMORY = "scalar_memory"
    VECTOR_COMPUTE = "vector_compute"
    VECTOR_MEMORY = "vector_memory"
    VECTOR_CONTROL = "vector_control"
    CONTROL = "control"


@unique
class Opcode(Enum):
    """The instruction opcodes understood by the simulators."""

    # Scalar computation (A and S registers).
    S_ADD = "s_add"
    S_SUB = "s_sub"
    S_MUL = "s_mul"
    S_DIV = "s_div"
    S_FADD = "s_fadd"
    S_FMUL = "s_fmul"
    S_CMP = "s_cmp"
    S_MOV = "s_mov"
    S_LI = "s_li"

    # Scalar memory.
    S_LOAD = "s_load"
    S_STORE = "s_store"

    # Control flow.
    BRANCH = "branch"
    JUMP = "jump"
    CALL = "call"
    RETURN = "return"

    # Vector control registers.
    SET_VL = "set_vl"
    SET_VS = "set_vs"

    # Vector computation executable on either functional unit.
    V_ADD = "v_add"
    V_SUB = "v_sub"
    V_AND = "v_and"
    V_OR = "v_or"
    V_XOR = "v_xor"
    V_SHIFT = "v_shift"
    V_CMP = "v_cmp"
    V_MERGE = "v_merge"
    V_MAX = "v_max"
    V_MIN = "v_min"
    V_SUM = "v_sum"

    # Vector computation restricted to the general-purpose unit (FU2).
    V_MUL = "v_mul"
    V_DIV = "v_div"
    V_SQRT = "v_sqrt"
    V_DOT = "v_dot"

    # Vector/scalar data movement (executes on a vector functional unit).
    V_SPLAT = "v_splat"
    V_EXTRACT = "v_extract"

    # Vector memory.
    V_LOAD = "v_load"
    V_STORE = "v_store"
    V_GATHER = "v_gather"
    V_SCATTER = "v_scatter"


_SCALAR_COMPUTE = {
    Opcode.S_ADD,
    Opcode.S_SUB,
    Opcode.S_MUL,
    Opcode.S_DIV,
    Opcode.S_FADD,
    Opcode.S_FMUL,
    Opcode.S_CMP,
    Opcode.S_MOV,
    Opcode.S_LI,
}

_SCALAR_MEMORY = {Opcode.S_LOAD, Opcode.S_STORE}

_CONTROL = {Opcode.BRANCH, Opcode.JUMP, Opcode.CALL, Opcode.RETURN}

_VECTOR_CONTROL = {Opcode.SET_VL, Opcode.SET_VS}

_VECTOR_FU_ANY = {
    Opcode.V_ADD,
    Opcode.V_SUB,
    Opcode.V_AND,
    Opcode.V_OR,
    Opcode.V_XOR,
    Opcode.V_SHIFT,
    Opcode.V_CMP,
    Opcode.V_MERGE,
    Opcode.V_MAX,
    Opcode.V_MIN,
    Opcode.V_SUM,
    Opcode.V_SPLAT,
    Opcode.V_EXTRACT,
}

_VECTOR_FU2_ONLY = {Opcode.V_MUL, Opcode.V_DIV, Opcode.V_SQRT, Opcode.V_DOT}

_VECTOR_MEMORY = {Opcode.V_LOAD, Opcode.V_STORE, Opcode.V_GATHER, Opcode.V_SCATTER}

_LOADS = {Opcode.S_LOAD, Opcode.V_LOAD, Opcode.V_GATHER}
_STORES = {Opcode.S_STORE, Opcode.V_STORE, Opcode.V_SCATTER}
_INDEXED = {Opcode.V_GATHER, Opcode.V_SCATTER}
_REDUCTIONS = {Opcode.V_SUM, Opcode.V_DOT, Opcode.V_EXTRACT}


@lru_cache(maxsize=None)
def opcode_class(opcode: Opcode) -> OpcodeClass:
    """Return the broad category an opcode belongs to.

    Cached per opcode: the simulators ask this for every traced instruction,
    which made the chain of set-membership tests a measurable hot spot.
    """
    if opcode in _SCALAR_COMPUTE:
        return OpcodeClass.SCALAR_COMPUTE
    if opcode in _SCALAR_MEMORY:
        return OpcodeClass.SCALAR_MEMORY
    if opcode in _CONTROL:
        return OpcodeClass.CONTROL
    if opcode in _VECTOR_CONTROL:
        return OpcodeClass.VECTOR_CONTROL
    if opcode in _VECTOR_FU_ANY or opcode in _VECTOR_FU2_ONLY:
        return OpcodeClass.VECTOR_COMPUTE
    if opcode in _VECTOR_MEMORY:
        return OpcodeClass.VECTOR_MEMORY
    raise ValueError(f"unclassified opcode: {opcode}")


def is_vector(opcode: Opcode) -> bool:
    """True for vector compute and vector memory instructions."""
    return opcode in _VECTOR_FU_ANY or opcode in _VECTOR_FU2_ONLY or opcode in _VECTOR_MEMORY


def is_memory(opcode: Opcode) -> bool:
    """True for any instruction that accesses memory."""
    return opcode in _SCALAR_MEMORY or opcode in _VECTOR_MEMORY


def is_load(opcode: Opcode) -> bool:
    """True for scalar and vector loads (including gathers)."""
    return opcode in _LOADS


def is_store(opcode: Opcode) -> bool:
    """True for scalar and vector stores (including scatters)."""
    return opcode in _STORES


def is_indexed_memory(opcode: Opcode) -> bool:
    """True for gathers and scatters, which cannot be described by a range."""
    return opcode in _INDEXED


def is_branch(opcode: Opcode) -> bool:
    """True for control-transfer instructions."""
    return opcode in _CONTROL


def is_conditional_branch(opcode: Opcode) -> bool:
    """True for the conditional branch opcode only."""
    return opcode is Opcode.BRANCH


def is_reduction(opcode: Opcode) -> bool:
    """True for vector instructions that produce a scalar result."""
    return opcode in _REDUCTIONS


def requires_fu2(opcode: Opcode) -> bool:
    """True when only the general-purpose vector unit can execute the opcode."""
    return opcode in _VECTOR_FU2_ONLY
