"""Unit tests for the declarative MachineSpec API."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core import MachineSpec, Runner, SweepSpec, architecture, machine_spec
from repro.core.machine import (
    FIELDS,
    canonical_axis_name,
    lookup_field,
    parse_axis_values,
)
from repro.dva.config import DecoupledConfig
from repro.refarch.config import ReferenceConfig


class TestStringRoundTrip:
    def test_issue_example_parses(self):
        spec = machine_spec("dva@lanes=2,ports=2,bypass=off")
        assert spec.family == "dva"
        assert spec.lanes == 2
        assert spec.memory_ports == 2
        assert spec.bypass is False

    def test_to_string_is_canonical(self):
        spec = machine_spec("dva@bypass=off,ports=2,lanes=2")
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
    def test_machine_spec_to_string_identity(self, text):
        spec = machine_spec(text)
        assert machine_spec(spec.to_string()) == spec

    def test_preset_base_with_overrides(self):
        assert (
            machine_spec("dva-2port@lanes=2")
            == machine_spec("dva@lanes=2,ports=2")
        )

    def test_family_names_are_builtins(self):
        assert machine_spec("ref") == MachineSpec(family="ref")
        assert machine_spec("dva-nobypass") == MachineSpec(family="dva", bypass=False)

    def test_aliases_accepted(self):
        spec = machine_spec("dva@memory_ports=2,vector_load_data=8")
        assert spec.memory_ports == 2
        assert spec.vector_load_data == 8

    def test_bool_words(self):
        for word, expected in [("on", True), ("true", True), ("yes", True),
                               ("1", True), ("off", False), ("false", False),
                               ("no", False), ("0", False)]:
            assert machine_spec(f"dva@bypass={word}").bypass is expected


class TestStringErrors:
    def test_unknown_base(self):
        with pytest.raises(ConfigurationError, match="unknown architecture 'vliw'"):
            machine_spec("vliw@lanes=2")

    def test_missing_base(self):
        with pytest.raises(ConfigurationError, match="no base machine"):
            machine_spec("@lanes=2")

    @pytest.mark.parametrize("text", ["dva@warp=9", "dva@core=event"])
    def test_unknown_field(self, text):
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            machine_spec(text)

    def test_malformed_assignment(self):
        with pytest.raises(ConfigurationError, match="malformed assignment"):
            machine_spec("dva@lanes")

    def test_empty_assignments(self):
        with pytest.raises(ConfigurationError, match="no assignments"):
            machine_spec("dva@")

    def test_duplicate_assignment(self):
        with pytest.raises(ConfigurationError, match="assigned twice"):
            machine_spec("dva@lanes=2,lanes=4")

    def test_non_integer_value(self):
        with pytest.raises(ConfigurationError, match="takes an integer"):
            machine_spec("dva@lanes=wide")

    def test_non_bool_value(self):
        with pytest.raises(ConfigurationError, match="takes on/off"):
            machine_spec("dva@bypass=maybe")

    def test_out_of_range_value(self):
        with pytest.raises(ConfigurationError, match="must be in 1..64"):
            machine_spec("dva@lanes=0")

    def test_power_of_two_enforced(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            machine_spec("ref@cache_line=48")

    def test_field_wrong_family(self):
        with pytest.raises(ConfigurationError, match="not valid for family"):
            machine_spec("ref@bypass=off")
        with pytest.raises(ConfigurationError, match="not valid for family"):
            machine_spec("dva@chaining=on")

    def test_unknown_family_constructor(self):
        with pytest.raises(ConfigurationError, match="unknown machine family"):
            MachineSpec(family="vliw")


class TestDefaults:
    @pytest.mark.parametrize("family", ["ref", "dva"])
    def test_bare_family_is_its_preset(self, family):
        assert MachineSpec(family=family) == machine_spec(family)
        assert MachineSpec(family=family).to_string() == family

    def test_inapplicable_fields_stay_unset(self):
        assert MachineSpec(family="ref").bypass is None
        assert MachineSpec(family="dva").chaining is None

    @pytest.mark.parametrize("family", ["ref", "dva"])
    def test_to_config_carries_every_field_default(self, family):
        config = MachineSpec(family=family).to_config()
        assert _config_fields(config) == {
            info.attribute: info.default
            for info in FIELDS
            if family in info.families
        }

    def test_to_config_carries_every_set_field(self):
        spec = machine_spec(
            "dva@lanes=2,ports=3,bypass=off,iq=4,avdq=5,vadq=6,ssaq=7,sdq=8,"
            "cache_line=64,cache_lines=128"
        )
        assert _config_fields(spec.to_config()) == {
            "lanes": 2, "memory_ports": 3, "bypass": False,
            "instruction_queue": 4, "vector_load_data": 5, "vector_store_data": 6,
            "scalar_store_address": 7, "scalar_data": 8,
            "cache_line_bytes": 64, "cache_lines": 128,
        }
        ref = machine_spec("ref@chaining=on,lanes=4").to_config()
        assert isinstance(ref, ReferenceConfig)
        assert ref.allow_load_chaining is True and ref.lanes == 4

    def test_overrides_are_exactly_the_non_default_fields(self):
        spec = MachineSpec(family="dva", lanes=1, bypass=False, vector_load_data=4)
        assert spec.overrides() == {"bypass": False, "vector_load_data": 4}
        assert spec.to_json() == {"family": "dva", "bypass": False, "vector_load_data": 4}
        assert spec.to_string() == "dva@bypass=off,avdq=4"


def _config_fields(config):
    """A family configuration block, read back as MachineSpec attributes."""
    fields = {
        "lanes": config.lanes,
        "memory_ports": config.memory_ports,
        "cache_line_bytes": config.scalar_cache.line_bytes,
        "cache_lines": config.scalar_cache.lines,
    }
    if isinstance(config, ReferenceConfig):
        fields["chaining"] = config.allow_load_chaining
        return fields
    assert isinstance(config, DecoupledConfig)
    queues = config.queues
    fields.update(
        bypass=config.enable_bypass,
        instruction_queue=queues.instruction_queue,
        vector_load_data=queues.vector_load_data,
        vector_store_data=queues.vector_store_data,
        scalar_store_address=queues.scalar_store_address,
        scalar_data=queues.scalar_data,
    )
    return fields


class TestFieldSchema:
    def test_every_field_has_range_text(self):
        for info in FIELDS:
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
    def test_inline_spec_resolves_without_registration(self):
        simulator = architecture("dva@lanes=2")
        assert simulator.name == "dva@lanes=2"
        assert simulator.spec.lanes == 2

    def test_inline_spec_errors_propagate(self):
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            architecture("dva@warp=9")

    def test_inline_spec_over_runtime_registered_base(self):
        """An @-clause composes with any registered name."""
        from repro.core import register_architecture, unregister_architecture

        register_architecture(
            machine_spec("dva@avdq=4"), name="dva-tiny"
        )
        try:
            extended = architecture("dva-tiny@lanes=2")
            assert extended.spec.vector_load_data == 4
            assert extended.spec.lanes == 2
            assert extended.name == "dva@lanes=2,avdq=4"
        finally:
            unregister_architecture("dva-tiny")

    def test_unknown_name_still_lists_known(self):
        with pytest.raises(ConfigurationError, match="unknown architecture"):
            architecture("vliw")


class TestWorkerPickling:
    def test_inline_specs_run_in_pool_workers(self, two_cpus):
        """Inline machine specs must pickle into multiprocessing workers."""
        spec = SweepSpec(
            programs=("trfd",),
            latencies=(1, 50),
            architectures=("ref", "dva@lanes=2,ports=2,bypass=off"),
            scale=0.2,
        )
        serial = Runner(jobs=1).run(spec)
        with Runner(jobs=2) as runner:
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
        assert result.spec == {"family": "dva", "lanes": 2}
