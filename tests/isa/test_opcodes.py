"""Tests for opcode classification."""


from repro.isa import opcodes as op
from repro.isa.opcodes import Opcode, OpcodeClass


class TestClassificationCoverage:
    def test_every_opcode_is_classified(self):
        for opcode in Opcode:
            assert op.opcode_class(opcode) in OpcodeClass

    def test_vector_and_scalar_are_disjoint(self):
        for opcode in Opcode:
            if op.opcode_class(opcode) in (
                OpcodeClass.SCALAR_COMPUTE,
                OpcodeClass.SCALAR_MEMORY,
                OpcodeClass.CONTROL,
                OpcodeClass.VECTOR_CONTROL,
            ):
                assert not op.is_vector(opcode)

    def test_loads_and_stores_are_memory(self):
        for opcode in Opcode:
            if op.is_load(opcode) or op.is_store(opcode):
                assert op.is_memory(opcode)
            if op.is_memory(opcode):
                assert op.is_load(opcode) != op.is_store(opcode)


    def test_only_vector_compute_requires_fu2(self):
        for opcode in Opcode:
            if op.requires_fu2(opcode):
                assert op.opcode_class(opcode) is OpcodeClass.VECTOR_COMPUTE


class TestSpecificOpcodes:
    def test_fu2_only_operations(self):
        for opcode in (Opcode.V_MUL, Opcode.V_DIV, Opcode.V_SQRT, Opcode.V_DOT):
            assert op.requires_fu2(opcode)
            assert op.opcode_class(opcode) is OpcodeClass.VECTOR_COMPUTE

    def test_fu_any_operations(self):
        for opcode in (Opcode.V_ADD, Opcode.V_SUB, Opcode.V_AND, Opcode.V_SUM):
            assert not op.requires_fu2(opcode)
            assert op.opcode_class(opcode) is OpcodeClass.VECTOR_COMPUTE

    def test_reductions(self):
        for opcode in (Opcode.V_SUM, Opcode.V_DOT, Opcode.V_EXTRACT):
            assert op.opcode_class(opcode) is OpcodeClass.VECTOR_COMPUTE
            assert op.is_vector(opcode)
        assert not op.requires_fu2(Opcode.V_SUM)
        assert not op.requires_fu2(Opcode.V_EXTRACT)
        assert op.requires_fu2(Opcode.V_DOT)

    def test_vector_memory(self):
        assert op.opcode_class(Opcode.V_LOAD) is OpcodeClass.VECTOR_MEMORY
        assert op.is_load(Opcode.V_LOAD)
        assert op.is_store(Opcode.V_STORE)
        assert op.is_load(Opcode.V_GATHER)
        assert op.is_store(Opcode.V_SCATTER)

    def test_scalar_memory(self):
        assert op.opcode_class(Opcode.S_LOAD) is OpcodeClass.SCALAR_MEMORY
        assert op.opcode_class(Opcode.S_STORE) is OpcodeClass.SCALAR_MEMORY

    def test_branches(self):
        assert op.opcode_class(Opcode.BRANCH) is OpcodeClass.CONTROL
        assert op.opcode_class(Opcode.JUMP) is OpcodeClass.CONTROL
        assert op.is_conditional_branch(Opcode.BRANCH)
        assert not op.is_conditional_branch(Opcode.JUMP)

    def test_vector_control_is_not_vector_work(self):
        assert op.opcode_class(Opcode.SET_VL) is OpcodeClass.VECTOR_CONTROL
        assert op.opcode_class(Opcode.SET_VS) is OpcodeClass.VECTOR_CONTROL
        assert not op.is_vector(Opcode.SET_VL)
