"""Register model of the Convex-style vector machine.

The reference architecture has eight vector registers of 128 elements of
64 bits each, grouped pairwise into register banks that share ports
(paper §2.1).  The scalar side has address (``A``) and scalar data (``S``)
registers.  The simulators only track register *names* for dependence
analysis; no values are stored.  Every register also has a dense integer
:attr:`Register.id` (its file's offset plus its index), so the simulators'
scoreboards are plain lists indexed by id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from itertools import accumulate

from repro.common.errors import ConfigurationError

#: Number of architectural vector registers (paper §2.1).
VECTOR_REGISTER_COUNT = 8

#: Maximum number of 64-bit elements held by one vector register.
VECTOR_REGISTER_LENGTH = 128

#: Number of architectural address registers.
ADDRESS_REGISTER_COUNT = 8

#: Number of architectural scalar registers.
SCALAR_REGISTER_COUNT = 8

#: Access granularity of a vector element, in bytes (64-bit elements).
ELEMENT_SIZE_BYTES = 8


@unique
class RegisterClass(Enum):
    """The architectural register files."""

    ADDRESS = "a"
    SCALAR = "s"
    VECTOR = "v"
    VECTOR_LENGTH = "vl"
    VECTOR_STRIDE = "vs"


_FILE_SIZES = {
    RegisterClass.ADDRESS: ADDRESS_REGISTER_COUNT,
    RegisterClass.SCALAR: SCALAR_REGISTER_COUNT,
    RegisterClass.VECTOR: VECTOR_REGISTER_COUNT,
    RegisterClass.VECTOR_LENGTH: 1,
    RegisterClass.VECTOR_STRIDE: 1,
}

#: First register id of each file: the files laid end to end in declaration order.
_FILE_OFFSETS = dict(zip(_FILE_SIZES, accumulate(_FILE_SIZES.values(), initial=0)))

#: Number of architectural registers; :attr:`Register.id` is in ``range(REGISTER_COUNT)``.
REGISTER_COUNT = sum(_FILE_SIZES.values())


@dataclass(frozen=True, order=True)
class Register:
    """An architectural register identified by class and index.

    ``id`` is the register's dense global number (file offset + index),
    derived from the two fields and fixed for the life of the process.
    """

    register_class: RegisterClass
    index: int
    id: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        limit = _FILE_SIZES[self.register_class]
        if not 0 <= self.index < limit:
            raise ConfigurationError(
                f"register index {self.index} out of range for class "
                f"{self.register_class.value!r} (size {limit})"
            )
        object.__setattr__(self, "id", _FILE_OFFSETS[self.register_class] + self.index)

    def __hash__(self) -> int:
        return self.id

    @property
    def is_vector(self) -> bool:
        return self.register_class is RegisterClass.VECTOR

    @property
    def is_scalar(self) -> bool:
        return self.register_class in (RegisterClass.ADDRESS, RegisterClass.SCALAR)

    @property
    def name(self) -> str:
        if self.register_class in (RegisterClass.VECTOR_LENGTH, RegisterClass.VECTOR_STRIDE):
            return self.register_class.value.upper()
        return f"{self.register_class.value}{self.index}"

    def __str__(self) -> str:
        return self.name


_REGISTER_CACHE: dict[tuple[RegisterClass, int], Register] = {}


def canonical_register(register_class: RegisterClass, index: int) -> Register:
    """The interned :class:`Register` for ``(register_class, index)``.

    The register files are tiny, so every register that appears in a program
    can be a single shared object.
    """
    key = (register_class, index)
    register = _REGISTER_CACHE.get(key)
    if register is None:
        register = Register(register_class, index)
        _REGISTER_CACHE[key] = register
    return register


def a_reg(index: int) -> Register:
    """Shorthand constructor for an address register."""
    return canonical_register(RegisterClass.ADDRESS, index)


def s_reg(index: int) -> Register:
    """Shorthand constructor for a scalar register."""
    return canonical_register(RegisterClass.SCALAR, index)


def v_reg(index: int) -> Register:
    """Shorthand constructor for a vector register."""
    return canonical_register(RegisterClass.VECTOR, index)


#: The (single) vector length register.
VL_REGISTER = canonical_register(RegisterClass.VECTOR_LENGTH, 0)

#: The (single) vector stride register.
VS_REGISTER = canonical_register(RegisterClass.VECTOR_STRIDE, 0)
