"""Unit tests for the declarative MachineSpec API."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.core import MachineSpec, Runner, SweepSpec, architecture, machine_spec
from repro.core.machine import (
    PRESETS,
    canonical_axis_name,
    field_infos,
    lookup_field,
    parse_axis_values,
)
from repro.dva.config import DecoupledConfig
from repro.refarch.config import ReferenceConfig


class TestStringRoundTrip:
    def test_issue_example_parses(self):
        spec = MachineSpec.from_string("dva@lanes=2,ports=2,bypass=off")
        assert spec.family == "dva"
        assert spec.lanes == 2
        assert spec.memory_ports == 2
        assert spec.bypass is False

    def test_to_string_is_canonical(self):
        spec = MachineSpec.from_string("dva@bypass=off,ports=2,lanes=2")
        assert spec.to_string() == "dva@lanes=2,ports=2,bypass=off"

    @pytest.mark.parametrize(
        "text",
        [
            "ref",
            "dva",
            "dva@bypass=off",
            "ref@lanes=2",
            "dva@ports=2",
            "dva@lanes=4,ports=2,avdq=4,vadq=4",
            "ref@chaining=on,cache_line=64,cache_lines=256",
        ],
    )
    def test_from_string_to_string_identity(self, text):
        spec = MachineSpec.from_string(text)
        assert MachineSpec.from_string(spec.to_string()) == spec

    def test_preset_base_with_overrides(self):
        assert (
            MachineSpec.from_string("dva-2port@lanes=2")
            == MachineSpec.from_string("dva@lanes=2,ports=2")
        )

    def test_family_names_are_presets(self):
        assert MachineSpec.from_string("ref") == PRESETS["ref"].spec
        assert MachineSpec.from_string("dva-nobypass") == PRESETS["dva-nobypass"].spec

    def test_aliases_accepted(self):
        spec = MachineSpec.from_string("dva@memory_ports=2,vector_load_data=8")
        assert spec.memory_ports == 2
        assert spec.vector_load_data == 8

    def test_bool_words(self):
        for word, expected in [("on", True), ("true", True), ("yes", True),
                               ("1", True), ("off", False), ("false", False),
                               ("no", False), ("0", False)]:
            assert MachineSpec.from_string(f"dva@bypass={word}").bypass is expected


class TestStringErrors:
    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="unknown machine preset"):
            MachineSpec.from_string("vliw@lanes=2")

    @pytest.mark.parametrize("text", ["dva@warp=9", "dva@core=event"])
    def test_unknown_field(self, text):
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            MachineSpec.from_string(text)

    def test_malformed_assignment(self):
        with pytest.raises(ConfigurationError, match="malformed assignment"):
            MachineSpec.from_string("dva@lanes")

    def test_empty_assignments(self):
        with pytest.raises(ConfigurationError, match="no assignments"):
            MachineSpec.from_string("dva@")

    def test_duplicate_assignment(self):
        with pytest.raises(ConfigurationError, match="assigned twice"):
            MachineSpec.from_string("dva@lanes=2,lanes=4")

    def test_non_integer_value(self):
        with pytest.raises(ConfigurationError, match="takes an integer"):
            MachineSpec.from_string("dva@lanes=wide")

    def test_non_bool_value(self):
        with pytest.raises(ConfigurationError, match="takes on/off"):
            MachineSpec.from_string("dva@bypass=maybe")

    def test_out_of_range_value(self):
        with pytest.raises(ConfigurationError, match="must be in 1..64"):
            MachineSpec.from_string("dva@lanes=0")

    def test_power_of_two_enforced(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            MachineSpec.from_string("ref@cache_line=48")

    def test_field_wrong_family(self):
        with pytest.raises(ConfigurationError, match="not valid for family"):
            MachineSpec.from_string("ref@bypass=off")
        with pytest.raises(ConfigurationError, match="not valid for family"):
            MachineSpec.from_string("dva@chaining=on")

    def test_unknown_family_constructor(self):
        with pytest.raises(ConfigurationError, match="unknown machine family"):
            MachineSpec(family="vliw")


class TestJsonTomlRoundTrip:
    @pytest.mark.parametrize(
        "text", ["ref", "dva@lanes=2,ports=2,bypass=off", "dva@avdq=4,vadq=4"]
    )
    def test_json_round_trip(self, text):
        spec = MachineSpec.from_string(text)
        rebuilt = MachineSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rebuilt == spec

    @pytest.mark.parametrize(
        "text", ["ref", "dva@lanes=2,ports=2,bypass=off", "ref@chaining=on"]
    )
    def test_toml_round_trip(self, text):
        spec = MachineSpec.from_string(text)
        assert MachineSpec.from_toml(spec.to_toml()) == spec

    def test_json_missing_family_rejected(self):
        with pytest.raises(ConfigurationError, match="family"):
            MachineSpec.from_json({"lanes": 2})

    def test_json_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            MachineSpec.from_json({"family": "dva", "warp": 9})

    def test_json_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineSpec.from_json({"family": "dva", "lanes": 1000})


class TestApply:
    def test_apply_reference_pins_only_pinned_fields(self):
        base = ReferenceConfig(functional_unit_startup=7, allow_load_chaining=True)
        applied = MachineSpec.from_string("ref@lanes=2").apply_reference(base)
        assert applied.lanes == 2
        assert applied.functional_unit_startup == 7  # inherited
        assert applied.allow_load_chaining is True  # inherited (not pinned)

    def test_apply_decoupled_queues_and_cache(self):
        spec = MachineSpec.from_string("dva@avdq=4,vadq=8,cache_lines=64")
        applied = spec.apply_decoupled(DecoupledConfig())
        assert applied.queues.vector_load_data == 4
        assert applied.queues.vector_store_data == 8
        assert applied.queues.instruction_queue == 16  # inherited
        assert applied.scalar_cache.lines == 64
        assert applied.enable_bypass is True  # dva preset pins the bypass

    def test_apply_wrong_family_rejected(self):
        with pytest.raises(ConfigurationError, match="family"):
            MachineSpec.from_string("ref").apply_decoupled(DecoupledConfig())
        with pytest.raises(ConfigurationError, match="family"):
            MachineSpec.from_string("dva").apply_reference(ReferenceConfig())


class TestFieldSchema:
    def test_every_field_has_range_text(self):
        for info in field_infos():
            assert info.range_text
            assert info.description

    def test_lookup_by_key_attribute_and_alias(self):
        assert lookup_field("ports") is lookup_field("memory_ports")
        assert lookup_field("avdq") is lookup_field("vector_load_data")
        assert lookup_field("LANES").attribute == "lanes"

    def test_axis_name_canonicalization(self):
        assert canonical_axis_name("latency") == "latency"
        assert canonical_axis_name("memory_ports") == "ports"
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            canonical_axis_name("family")

    def test_axis_values_parse_and_validate(self):
        assert parse_axis_values("lanes", ("1", "2")) == (1, 2)
        assert parse_axis_values("bypass", ("on", "off")) == (True, False)
        with pytest.raises(ConfigurationError, match="repeats a value"):
            parse_axis_values("lanes", (1, 1))
        with pytest.raises(ConfigurationError, match="at least one value"):
            parse_axis_values("lanes", ())
        with pytest.raises(ConfigurationError, match="negative"):
            parse_axis_values("latency", (-1,))


class TestRegistryResolution:
    def test_presets_are_spec_backed(self):
        for name in PRESETS:
            assert machine_spec(name) == PRESETS[name].spec

    def test_inline_spec_resolves_without_registration(self):
        simulator = architecture("dva@lanes=2")
        assert simulator.name == "dva@lanes=2"
        assert simulator.spec.lanes == 2

    def test_inline_spec_errors_propagate(self):
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            architecture("dva@warp=9")

    def test_inline_spec_over_runtime_registered_base(self):
        """An @-clause composes with any registered spec-backed name."""
        from repro.core import register_architecture, unregister_architecture

        register_architecture(
            MachineSpec.from_string("dva@avdq=4"), name="dva-tiny"
        )
        try:
            extended = architecture("dva-tiny@lanes=2")
            assert extended.spec.vector_load_data == 4
            assert extended.spec.lanes == 2
            assert extended.name == "dva@lanes=2,avdq=4"
        finally:
            unregister_architecture("dva-tiny")

    def test_inline_spec_over_non_spec_base_rejected(self):
        from dataclasses import dataclass

        from repro.core import RunResult, register_architecture, unregister_architecture

        @dataclass(frozen=True)
        class Opaque:
            name: str = "opaque"
            description: str = "no spec behind this"

            def simulate(self, trace, config):
                return RunResult(
                    architecture=self.name, program=trace.name,
                    latency=config.latency, total_cycles=1, instructions=0,
                )

        register_architecture(Opaque())
        try:
            with pytest.raises(ConfigurationError, match="not spec-backed"):
                architecture("opaque@lanes=2")
        finally:
            unregister_architecture("opaque")

    def test_unknown_name_still_lists_known(self):
        with pytest.raises(ConfigurationError, match="unknown architecture"):
            architecture("vliw")


class TestWorkerPickling:
    def test_inline_specs_run_in_pool_workers(self):
        """Inline machine specs must pickle into multiprocessing workers."""
        spec = SweepSpec(
            programs=("trfd",),
            latencies=(1, 50),
            architectures=("ref", "dva@lanes=2,ports=2,bypass=off"),
            scale=0.2,
        )
        serial = Runner(jobs=1).run(spec)
        with Runner(jobs=2, adaptive=False) as runner:
            parallel = runner.run(spec)
        assert serial.results == parallel.results
        labels = {r.architecture for r in parallel}
        assert "dva@lanes=2,ports=2,bypass=off" in labels

    def test_spec_provenance_travels_with_results(self):
        spec = SweepSpec(
            programs=("trfd",),
            latencies=(1,),
            architectures=("dva@lanes=2",),
            scale=0.2,
        )
        result = Runner(jobs=1).run(spec).results[0]
        assert result.spec == {
            "family": "dva",
            "lanes": 2,
            "memory_ports": 1,
            "bypass": True,
        }
