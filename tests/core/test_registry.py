"""Unit tests for the Simulator protocol and the architecture registry."""

from dataclasses import dataclass

import pytest

from repro.common.errors import ConfigurationError
from repro.core import (
    RunConfig,
    RunResult,
    Simulator,
    architecture,
    architecture_names,
    register_architecture,
    simulate,
    unregister_architecture,
)
from repro.dva.config import DecoupledConfig
from repro.dva.simulator import simulate_decoupled
from repro.refarch.simulator import simulate_reference
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

    def test_builtins_satisfy_protocol(self):
        for name in architecture_names():
            assert isinstance(architecture(name), Simulator)


@dataclass(frozen=True)
class _ConstantArchitecture:
    """A trivial Simulator used to exercise registration."""

    name: str = "const"
    description: str = "always takes 42 cycles"

    def simulate(self, trace, config):
        return RunResult(
            architecture=self.name,
            program=trace.name,
            latency=config.latency,
            total_cycles=42,
            instructions=len(trace.records),
        )


class TestRegistration:
    def test_register_and_use_extension(self, trace):
        register_architecture(_ConstantArchitecture())
        try:
            result = simulate(trace, "const", latency=7)
            assert result.total_cycles == 42
            assert result.latency == 7
            assert "const" in architecture_names()
        finally:
            unregister_architecture("const")
        with pytest.raises(ConfigurationError):
            architecture("const")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_architecture(_ConstantArchitecture(name="ref"))

    def test_replace_allows_override(self):
        register_architecture(_ConstantArchitecture())
        try:
            replacement = _ConstantArchitecture(description="other")
            register_architecture(replacement, replace=True)
            assert architecture("const") is replacement
        finally:
            unregister_architecture("const")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            register_architecture(_ConstantArchitecture(name=""))

    def test_register_machine_spec_directly(self, trace):
        """register_architecture is a thin wrapper over spec resolution."""
        from repro.core import MachineSpec

        register_architecture(
            MachineSpec.from_string("dva@ports=2,bypass=off"),
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
        from repro.core import MachineSpec

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
            trace,
            latency=50,
            config=DecoupledConfig(enable_bypass=True),
        )
        assert unified.total_cycles == direct.total_cycles
        assert unified.detail == direct.to_json()

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
