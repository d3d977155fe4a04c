"""Tests for the register model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.isa.registers import (
    REGISTER_CLASS_OF_ID,
    REGISTER_COUNT,
    Register,
    RegisterClass,
    RegisterFile,
    VECTOR_REGISTER_COUNT,
    VL_REGISTER,
    VS_REGISTER,
    a_reg,
    canonical_register,
    s_reg,
    v_reg,
)


def _every_register():
    return [
        Register(register_class, index)
        for register_class in RegisterClass
        for index in range(REGISTER_CLASS_OF_ID.count(register_class))
    ]


class TestRegisterIds:
    def test_ids_are_dense_and_unique(self):
        ids = [register.id for register in _every_register()]
        assert sorted(ids) == list(range(REGISTER_COUNT))

    def test_id_names_its_register_file(self):
        for register in _every_register():
            assert REGISTER_CLASS_OF_ID[register.id] is register.register_class

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

    def test_vector_banks_group_pairs(self):
        assert v_reg(0).bank == 0
        assert v_reg(1).bank == 0
        assert v_reg(2).bank == 1
        assert v_reg(7).bank == 3

    def test_bank_of_scalar_register_rejected(self):
        with pytest.raises(ConfigurationError):
            _ = s_reg(0).bank

    def test_hashable_and_equal(self):
        assert v_reg(3) == v_reg(3)
        assert v_reg(3) != v_reg(4)
        assert len({v_reg(1), v_reg(1), v_reg(2)}) == 2


class TestRegisterFile:
    def test_round_robin_allocation(self):
        register_file = RegisterFile(RegisterClass.VECTOR)
        allocated = register_file.allocate_many(10)
        assert [r.index for r in allocated[:8]] == list(range(8))
        assert allocated[8].index == 0
        assert allocated[9].index == 1

    def test_reduced_size(self):
        register_file = RegisterFile(RegisterClass.VECTOR, size=4)
        allocated = register_file.allocate_many(5)
        assert [r.index for r in allocated] == [0, 1, 2, 3, 0]

    def test_reset(self):
        register_file = RegisterFile(RegisterClass.SCALAR)
        register_file.allocate()
        register_file.reset()
        assert register_file.allocate().index == 0

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            RegisterFile(RegisterClass.VECTOR, size=0)
        with pytest.raises(ConfigurationError):
            RegisterFile(RegisterClass.VECTOR, size=100)
