"""Tests for the register model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.isa.registers import (
    ADDRESS_REGISTER_COUNT,
    REGISTER_COUNT,
    SCALAR_REGISTER_COUNT,
    Register,
    RegisterClass,
    VECTOR_REGISTER_COUNT,
    VL_REGISTER,
    VS_REGISTER,
    a_reg,
    canonical_register,
    s_reg,
    v_reg,
)


_FILE_SIZES = {
    RegisterClass.ADDRESS: ADDRESS_REGISTER_COUNT,
    RegisterClass.SCALAR: SCALAR_REGISTER_COUNT,
    RegisterClass.VECTOR: VECTOR_REGISTER_COUNT,
    RegisterClass.VECTOR_LENGTH: 1,
    RegisterClass.VECTOR_STRIDE: 1,
}


def _every_register():
    return [
        Register(register_class, index)
        for register_class, size in _FILE_SIZES.items()
        for index in range(size)
    ]


class TestRegisterIds:
    def test_ids_are_dense_and_unique(self):
        ids = [register.id for register in _every_register()]
        assert sorted(ids) == list(range(REGISTER_COUNT))

    def test_id_names_its_register_file(self):
        # The files are laid end to end, so each one owns a contiguous id range.
        start = 0
        for register_class, size in _FILE_SIZES.items():
            ids = [Register(register_class, index).id for index in range(size)]
            assert ids == list(range(start, start + size))
            start += size

    def test_ids_are_stable_under_canonical_register(self):
        for register in _every_register():
            canonical = canonical_register(register.register_class, register.index)
            assert canonical.id == register.id
            assert canonical == register and hash(canonical) == hash(register)

    def test_control_registers_have_ids(self):
        assert {VL_REGISTER.id, VS_REGISTER.id} == {REGISTER_COUNT - 2, REGISTER_COUNT - 1}


class TestRegister:
    def test_constructors(self):
        assert a_reg(3).register_class is RegisterClass.ADDRESS
        assert s_reg(2).register_class is RegisterClass.SCALAR
        assert v_reg(7).register_class is RegisterClass.VECTOR

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            v_reg(VECTOR_REGISTER_COUNT)
        with pytest.raises(ConfigurationError):
            a_reg(-1)

    def test_names(self):
        assert str(v_reg(3)) == "v3"
        assert str(a_reg(0)) == "a0"
        assert str(VL_REGISTER) == "VL"
        assert str(VS_REGISTER) == "VS"

    def test_classification(self):
        assert v_reg(0).is_vector
        assert not v_reg(0).is_scalar
        assert a_reg(0).is_scalar
        assert s_reg(0).is_scalar
        assert not s_reg(0).is_vector

    def test_control_registers_are_neither_vector_nor_scalar(self):
        # Data-source ids drop exactly the registers that are neither.
        for register in (VL_REGISTER, VS_REGISTER):
            assert not register.is_vector
            assert not register.is_scalar

    def test_hashable_and_equal(self):
        assert v_reg(3) == v_reg(3)
        assert v_reg(3) != v_reg(4)
        assert len({v_reg(1), v_reg(1), v_reg(2)}) == 2

