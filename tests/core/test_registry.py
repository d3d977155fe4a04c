"""Unit tests for the architecture registry."""

import pickle

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.core import (
    MachineSpec,
    RunConfig,
    SpecArchitecture,
    architecture,
    architecture_names,
    machine_spec,
    simulate,
)
from repro.core import fuzz
from repro.core.registry import PRESETS, machine_label
from repro.dva.simulator import DecoupledSimulator, simulate_decoupled
from repro.refarch.simulator import ReferenceSimulator, simulate_reference
from repro.workloads import program_names
from repro.workloads.perfect_club import build_trace


@pytest.fixture(scope="module")
def trace():
    return build_trace("DYFESM", scale=0.2)


class TestLookup:
    def test_builtins_are_registered(self):
        assert architecture_names() == ["ref", "dva", "dva-nobypass"]

    def test_lookup_is_case_insensitive(self):
        assert architecture("REF") == architecture("ref")

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
        }

    def test_presets_table_is_immutable(self):
        with pytest.raises(TypeError):
            PRESETS["dva-4port"] = (MachineSpec(family="dva", memory_ports=4), "")


class TestLabels:
    """A machine's label is a function of its spec alone."""

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("dva-nobypass", ()),
            ("dva@bypass=off", ()),
            ("dva@lanes=1,bypass=off", ()),
            ("DVA@Bypass=OFF", ()),
            ("dva", (("bypass", False),)),
            ("dva-nobypass", (("lanes", 1),)),
        ],
    )
    def test_every_spelling_of_a_preset_is_labelled_by_its_name(self, name, overrides):
        machine = architecture(name, overrides)
        assert machine == SpecArchitecture(MachineSpec(family="dva", bypass=False))
        assert machine.name == "dva-nobypass"

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("dva-nobypass@lanes=2", ()),
            ("dva-nobypass", (("lanes", 2),)),
            ("dva@bypass=off,lanes=2", ()),
            ("dva@lanes=2", {"bypass": False}),
        ],
    )
    def test_other_machines_are_labelled_by_their_canonical_spec(self, name, overrides):
        assert architecture(name, overrides).name == "dva@lanes=2,bypass=off"

    def test_an_override_back_to_a_preset_gives_the_preset_label(self):
        """``dva@lanes=2`` overridden to one lane is the plain ``dva`` machine.

        The label was once rebuilt from the base name, which called this
        machine ``dva@lanes=1``.
        """
        assert architecture("dva@lanes=2", {"lanes": 1}).name == "dva"
        assert architecture("ref@lanes=1").name == "ref"
        assert architecture("dva@bypass=on").name == "dva"

    @pytest.mark.parametrize(
        "text", ["dva", "dva-nobypass", "ref@lanes=4", "dva@ports=2,iq=4,bypass=off"]
    )
    def test_labels_re_resolve_to_the_machine_they_name(self, text):
        for overrides in ((), (("ports", 4),), (("lanes", 2), ("ports", 1))):
            resolved = architecture(text, overrides)
            assert architecture(resolved.name) == resolved, (text, overrides)

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_a_preset_machine_is_labelled_by_its_spec(self, name):
        machine = architecture(name)
        assert machine.name == machine_label(machine.spec) == name
        assert SpecArchitecture(PRESETS[name][0]).name == name

    def test_every_fuzz_machine_is_labelled_by_its_spec(self):
        for seed in range(500):
            spec = fuzz.generate_case(seed).spec
            machine = SpecArchitecture(spec)
            assert machine.name == machine_label(spec), spec
            assert architecture(machine.name) == machine, spec

    def test_the_label_survives_a_pickle(self):
        machine = architecture("dva@lanes=2")
        assert pickle.loads(pickle.dumps(machine)).name == "dva@lanes=2"

    def test_bare_family_spec_runs_the_family_defaults(self):
        """A spec that leaves every field out is the family's default machine.

        ``MachineSpec(family="dva")`` once reported the bypass on but ran
        without it (41,155 cycles on BDNA at latency 50).
        """
        bdna = build_trace("BDNA")
        bare = SpecArchitecture(MachineSpec(family="dva"))
        bare_result = bare.simulate(bdna, RunConfig(latency=50))
        named = simulate(bdna, "dva", latency=50)
        assert bare_result.total_cycles == named.total_cycles == 28292
        assert bare_result.detail["bypass"] is True


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
