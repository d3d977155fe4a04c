"""Unit tests for the architecture registry."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.core import (
    MachineSpec,
    RunConfig,
    SpecArchitecture,
    architecture,
    architecture_names,
    machine_spec,
    register_architecture,
    resolve_architecture,
    simulate,
    unregister_architecture,
)
from repro.dva.simulator import DecoupledSimulator, simulate_decoupled
from repro.refarch.simulator import ReferenceSimulator, simulate_reference
from repro.workloads import program_names
from repro.workloads.perfect_club import build_trace


@pytest.fixture(scope="module")
def trace():
    return build_trace("DYFESM", scale=0.2)


class TestLookup:
    def test_builtins_are_registered(self):
        assert architecture_names()[:3] == ["ref", "dva", "dva-nobypass"]

    def test_lookup_is_case_insensitive(self):
        assert architecture("REF") is architecture("ref")

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown architecture"):
            architecture("vliw")

    def test_error_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="dva-nobypass"):
            architecture("vliw")

    def test_every_registered_name_is_a_spec_architecture(self):
        for name in architecture_names():
            assert isinstance(architecture(name), SpecArchitecture)

    def test_builtin_machines(self):
        assert {name: machine_spec(name) for name in architecture_names()} == {
            "ref": MachineSpec(family="ref"),
            "dva": MachineSpec(family="dva"),
            "dva-nobypass": MachineSpec(family="dva", bypass=False),
            "ref-2lane": MachineSpec(family="ref", lanes=2),
            "dva-2port": MachineSpec(family="dva", memory_ports=2),
        }


class TestRegistration:
    def test_register_and_use_extension(self, trace):
        register_architecture(
            MachineSpec(family="ref", lanes=4), name="ref-wide", description="4 lanes"
        )
        try:
            result = simulate(trace, "ref-wide", latency=7)
            assert result.architecture == "ref-wide"
            assert result.latency == 7
            assert "ref-wide" in architecture_names()
            assert architecture("ref-wide").description == "4 lanes"
        finally:
            unregister_architecture("ref-wide")
        with pytest.raises(ConfigurationError):
            architecture("ref-wide")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_architecture(MachineSpec(family="ref"), name="REF")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            register_architecture(MachineSpec(family="ref"))

    @pytest.mark.parametrize("candidate", [object(), "dva@lanes=2", None])
    def test_only_machine_specs_register(self, candidate):
        with pytest.raises(ConfigurationError, match="takes a MachineSpec"):
            register_architecture(candidate)

    @pytest.mark.parametrize("name", ["dva@lanes=4", "a,b", "lanes=4"])
    def test_names_with_spec_separators_rejected(self, name):
        """A name holding '@', ',' or '=' would be read back as another machine.

        ``dva@lanes=4`` registered as a lanes=1 machine once ran under that
        label, and ``a,b`` could not be picked from ``--arch``.
        """
        with pytest.raises(ConfigurationError, match="separator"):
            register_architecture(MachineSpec(family="dva"), name=name)
        assert name not in architecture_names()

    def test_axis_labels_re_resolve_to_the_machine_they_run(self):
        register_architecture(MachineSpec(family="dva", lanes=4), name="dva-4lane")
        try:
            for name in architecture_names():
                resolved = resolve_architecture(name, (("ports", 4),))
                assert architecture(resolved.name).spec == resolved.spec, name
        finally:
            unregister_architecture("dva-4lane")

    def test_register_machine_spec_directly(self, trace):
        """A registered spec runs exactly like the inline string it came from."""
        register_architecture(
            machine_spec("dva@ports=2,bypass=off"),
            name="dva-wide",
            description="two ports, no bypass",
        )
        try:
            registered = architecture("dva-wide")
            assert registered.spec.memory_ports == 2
            assert registered.spec.bypass is False
            inline = simulate(trace, "dva@ports=2,bypass=off", latency=50)
            named = simulate(trace, "dva-wide", latency=50)
            assert named.total_cycles == inline.total_cycles
        finally:
            unregister_architecture("dva-wide")

    def test_bare_family_spec_runs_the_family_defaults(self):
        """A spec that leaves every field out is the family's default machine.

        ``MachineSpec(family="dva")`` once reported the bypass on but ran
        without it (41,155 cycles on BDNA at latency 50).
        """
        bdna = build_trace("BDNA")
        register_architecture(MachineSpec(family="dva"), name="dva-bare")
        try:
            bare = simulate(bdna, "dva-bare", latency=50)
            named = simulate(bdna, "dva", latency=50)
        finally:
            unregister_architecture("dva-bare")
        assert bare.total_cycles == named.total_cycles == 28292
        assert bare.detail["bypass"] is True


class TestAdapters:
    """The adapters must reproduce the hand-wired simulator calls exactly."""

    def test_ref_matches_hand_wired_reference(self, trace):
        unified = simulate(trace, "ref", latency=50)
        direct = simulate_reference(trace, latency=50)
        assert unified.total_cycles == direct.total_cycles
        assert unified.detail == direct.to_json()

    def test_dva_matches_hand_wired_decoupled_with_bypass(self, trace):
        unified = simulate(trace, "dva", latency=50)
        direct = simulate_decoupled(
            trace, latency=50, spec=MachineSpec(family="dva", bypass=True)
        )
        assert unified.total_cycles == direct.total_cycles
        assert unified.detail == direct.to_json()

    @pytest.mark.parametrize("program", program_names())
    @pytest.mark.parametrize(
        "family, wrapper",
        [("ref", simulate_reference), ("dva", simulate_decoupled)],
    )
    def test_wrappers_without_a_spec_run_the_builtin(self, family, wrapper, program):
        """The spec-less wrappers are the built-in machines, not a second default.

        ``simulate_decoupled(trace, 50)`` once ran without the bypass while
        the ``dva`` built-in has it on (BDNA: 41,155 vs 28,292 cycles).
        """
        full = build_trace(program)
        builtin = simulate(full, family, latency=50)
        assert wrapper(full, 50).total_cycles == builtin.total_cycles

    @pytest.mark.parametrize(
        "simulator, family",
        [(ReferenceSimulator, "dva"), (DecoupledSimulator, "ref")],
    )
    def test_simulators_refuse_the_other_family(self, simulator, family):
        with pytest.raises(ConfigurationError, match="machines, not"):
            simulator(MachineSpec(family=family), 50)

    @pytest.mark.parametrize(
        "make",
        [
            lambda trace: ReferenceSimulator(MachineSpec(family="ref"), -1),
            lambda trace: DecoupledSimulator(MachineSpec(family="dva"), -1),
            lambda trace: simulate_reference(trace, -1),
            lambda trace: simulate_decoupled(trace, -1),
        ],
        ids=["ReferenceSimulator", "DecoupledSimulator", "simulate_reference",
             "simulate_decoupled"],
    )
    def test_negative_latency_is_refused(self, trace, make):
        with pytest.raises(ConfigurationError, match="latency cannot be negative"):
            make(trace)

    @pytest.mark.parametrize(
        "simulator, family",
        [(ReferenceSimulator, "ref"), (DecoupledSimulator, "dva")],
    )
    def test_a_simulator_runs_one_trace(self, trace, simulator, family):
        machine = simulator(MachineSpec(family=family), 50)
        machine.run(trace)
        with pytest.raises(SimulationError, match="runs one trace"):
            machine.run(trace)

    @pytest.mark.parametrize(
        "simulator, family",
        [(ReferenceSimulator, "ref"), (DecoupledSimulator, "dva")],
    )
    def test_a_simulator_names_its_unit_recorders(self, trace, simulator, family):
        machine = simulator(MachineSpec(family=family, memory_ports=2), 50)
        assert machine.fu_free == [0, 0]
        assert [recorder.name for recorder in machine.fu_busy] == ["FU1", "FU2"]
        result = machine.run(trace)
        assert (result.fu1_busy.name, result.fu2_busy.name) == ("FU1", "FU2")
        assert result.port_busy.name == "LD"

    def test_dva_nobypass_disables_bypass(self, trace):
        with_bypass = simulate(trace, "dva", latency=50)
        without = simulate(trace, "dva-nobypass", latency=50)
        assert with_bypass.detail["bypass"] is True
        assert without.detail["bypass"] is False
        assert without.detail["bypassed_loads"] == 0

    def test_run_config_supplies_the_latency(self, trace):
        result = architecture("ref").simulate(trace, RunConfig(latency=100))
        assert result.latency == 100

    def test_architecture_tag_on_results(self, trace):
        for name in ("ref", "dva", "dva-nobypass"):
            assert simulate(trace, name, latency=1).architecture == name
