"""Tests for the program models and the Perfect Club registry."""

import math

import pytest

from repro.common.errors import WorkloadError
from repro.trace.statistics import compute_statistics
from repro.workloads import (
    PERFECT_CLUB_PROGRAMS,
    ProgramModel,
    load_program,
    program_names,
    synthetic,
)
from repro.isa.opcodes import Opcode
from repro.workloads.kernel import KernelSchedule, LoopKernel
from repro.workloads.perfect_club import build_trace


class TestProgramModel:
    def test_requires_kernels(self):
        with pytest.raises(WorkloadError):
            ProgramModel(name="empty", schedules=())

    def test_requires_name(self):
        with pytest.raises(WorkloadError):
            ProgramModel(name="", schedules=(KernelSchedule(synthetic.daxpy()),))

    def test_two_different_kernels_may_not_share_a_name(self):
        # The name labels a kernel's blocks, so the second kernel would run
        # the first one's code.
        first = LoopKernel(name="k", elements=128, fu_any_ops=1)
        second = LoopKernel(name="k", elements=128, fu2_ops=5)
        with pytest.raises(WorkloadError, match="'k'"):
            ProgramModel(name="clash", schedules=(KernelSchedule(first), KernelSchedule(second)))

    def test_one_kernel_may_run_in_several_schedules(self):
        kernel = LoopKernel(name="k", elements=128, fu2_ops=5)
        model = ProgramModel(
            name="twice", schedules=(KernelSchedule(kernel), KernelSchedule(kernel, 2))
        )
        trace = model.build_trace()
        multiplies = [i for i in trace.insn if trace.instructions[i].opcode is Opcode.V_MUL]
        assert len(multiplies) == 3 * 5

    def test_kernels_of_different_names_keep_their_own_code(self):
        first = LoopKernel(name="k1", elements=128, fu_any_ops=1)
        second = LoopKernel(name="k2", elements=128, fu2_ops=5)
        trace = ProgramModel(
            name="pair", schedules=(KernelSchedule(first), KernelSchedule(second))
        ).build_trace()
        multiplies = [i for i in trace.insn if trace.instructions[i].opcode is Opcode.V_MUL]
        assert len(multiplies) == 5

    def test_build_trace_rejects_non_positive_scale(self):
        model = synthetic.simple_program()
        with pytest.raises(WorkloadError):
            model.build_trace(scale=0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 1e308])
    def test_non_finite_or_overflowing_scale_rejected(self, scale):
        model = synthetic.simple_program()
        with pytest.raises(WorkloadError, match="scale"):
            model.build_trace(scale=scale)
        with pytest.raises(WorkloadError, match="scale"):
            model.estimated_trace_length(scale=scale)

    def test_scale_changes_trace_length(self):
        model = synthetic.simple_program(repetitions=4)
        small = model.build_trace(scale=0.5)
        base = model.build_trace(scale=1.0)
        large = model.build_trace(scale=2.0)
        assert len(small) < len(base) < len(large)

    def test_small_scale_keeps_every_kernel(self):
        model = synthetic.simple_program(repetitions=8)
        trace = model.build_trace(scale=0.01)
        regions = {
            trace.instructions[index].memory.region
            for index in set(trace.insn)
            if trace.instructions[index].is_memory
        }
        assert any(region.startswith("stream_triad.") for region in regions)
        assert any(region.startswith("daxpy.") for region in regions)

    def test_prologue_emitted_once(self):
        model = synthetic.simple_program()
        trace = model.build_trace()
        prologue = [
            index for index in trace.insn if trace.instructions[index].label.startswith("prologue")
        ]
        assert len(prologue) == model.prologue_scalar_instructions > 0

    def test_metadata_carries_targets_and_scale(self):
        model = load_program("ARC2D")
        trace = model.build_trace(scale=0.5)
        assert trace.metadata["program"] == "ARC2D"
        assert trace.metadata["scale"] == 0.5
        assert "vectorization_percent" in trace.metadata["targets"]


class TestPerfectClubRegistry:
    def test_six_programs_registered(self):
        assert program_names() == ["ARC2D", "FLO52", "BDNA", "TRFD", "DYFESM", "SPEC77"]
        assert len(PERFECT_CLUB_PROGRAMS) == 6

    def test_load_is_case_insensitive(self):
        assert load_program("arc2d").name == "ARC2D"

    def test_unknown_program_rejected(self):
        with pytest.raises(WorkloadError):
            load_program("NASA7")

    def test_build_trace_helper(self):
        trace = build_trace("FLO52", scale=0.25)
        assert trace.name == "FLO52"
        assert len(trace) > 0


class TestPublishedStatistics:
    """The synthetic models should land near the paper's Table 1 numbers."""

    @pytest.mark.parametrize(
        "name",
        ["ARC2D", "FLO52", "BDNA", "TRFD"],
    )
    def test_vectorization_close_to_table1(self, name):
        model = load_program(name)
        stats = compute_statistics(model.build_trace(scale=0.5))
        target = model.targets.vectorization_percent
        assert target is not None
        assert abs(stats.vectorization_percent - target) < 4.0

    @pytest.mark.parametrize("name", ["ARC2D", "FLO52", "BDNA", "TRFD"])
    def test_average_vector_length_close_to_table1(self, name):
        model = load_program(name)
        stats = compute_statistics(model.build_trace(scale=0.5))
        target = model.targets.average_vector_length
        assert target is not None
        assert abs(stats.average_vector_length - target) <= 3.0

    def test_every_program_is_highly_vectorized(self):
        # The paper requires > 70 % vectorization for a program to be studied.
        for name in program_names():
            stats = compute_statistics(load_program(name).build_trace(scale=0.5))
            assert stats.vectorization_percent > 70.0

    def test_bdna_is_the_spill_champion(self):
        fractions = {}
        for name in program_names():
            stats = compute_statistics(load_program(name).build_trace(scale=0.5))
            fractions[name] = stats.spill_fraction
        assert max(fractions, key=fractions.get) == "BDNA"
        assert fractions["BDNA"] > 0.6
        assert fractions["SPEC77"] < 0.05

    def test_dyfesm_has_carried_reduction_loops(self):
        model = load_program("DYFESM")
        carried = [k for k in model.kernels if k.reduction_carried]
        assert len(carried) == 2


class TestInvocationMarks:
    """One mark per kernel invocation: what the issue loops fast-forward over."""

    @pytest.mark.parametrize("scale", [0.1, 1, 4])
    @pytest.mark.parametrize("name", PERFECT_CLUB_PROGRAMS)
    def test_marks_partition_the_rows_after_the_prologue(self, name, scale):
        model = load_program(name)
        trace = model.build_trace(scale)
        rows = [row for _kernel, row in trace.marks]
        assert rows[0] == model.prologue_scalar_instructions
        assert rows == sorted(set(rows))
        assert rows[-1] < len(trace)
        # One mark per scaled invocation, each schedule's kernel in turn.
        kernels = [kernel for kernel, _row in trace.marks]
        counts = [kernels.count(kernel) for kernel in dict.fromkeys(kernels)]
        assert counts == [
            max(1, math.ceil(schedule.total_invocations * scale))
            for schedule in model.schedules
        ]

    @pytest.mark.parametrize("scale", [0.1, 1, 4])
    @pytest.mark.parametrize("name", PERFECT_CLUB_PROGRAMS)
    def test_every_invocation_repeats_the_kernels_previous_one(self, name, scale):
        trace = load_program(name).build_trace(scale)
        ends = [row for _kernel, row in trace.marks[1:]] + [len(trace)]
        previous = {}
        for (kernel, start), end in zip(trace.marks, ends):
            rows = tuple(
                column[start:end]
                for column in (trace.insn, trace.vl, trace.stride, trace.addr)
            )
            assert previous.setdefault(kernel, rows) == rows
            previous[kernel] = rows
