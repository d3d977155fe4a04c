"""Unit tests for the content-addressed cache-key derivation."""

from dataclasses import replace

import pytest

import repro.core.machine as machine_module
from repro.core import MachineSpec, RunConfig, architecture, architecture_names
from repro.core.registry import SpecArchitecture
from repro.store import cell_key
from repro.store.keys import KEY_SCHEME_VERSION

CONFIG = RunConfig()


def _key(program="trfd", scale=1.0, latency=50, arch="dva", config=CONFIG):
    return cell_key(program, scale, latency, architecture(arch), config)


class TestKeyStability:
    def test_key_is_a_sha256_hex_digest(self):
        key = _key()
        assert isinstance(key, str) and len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_key_is_deterministic_across_calls(self):
        assert _key() == _key()

    def test_program_case_is_normalized(self):
        assert _key(program="TRFD") == _key(program="trfd")

    def test_generator_and_timing_versions_are_folded_in(self, monkeypatch):
        import repro.store.keys as keys_module

        base = _key()
        monkeypatch.setattr(keys_module, "TIMING_MODEL_VERSION", 999)
        bumped_timing = _key()
        assert bumped_timing != base
        monkeypatch.setattr(keys_module, "TRACE_GENERATOR_VERSION", 999)
        assert _key() not in (base, bumped_timing)

    def test_scheme_version_is_current(self):
        # A bump of KEY_SCHEME_VERSION is an intentional, reviewed act of
        # cache invalidation; this pin makes accidental bumps visible.
        assert KEY_SCHEME_VERSION == 5


class TestKeySensitivity:
    def test_every_cell_coordinate_changes_the_key(self):
        base = _key()
        assert _key(program="dyfesm") != base
        assert _key(scale=0.5) != base
        assert _key(latency=100) != base
        assert _key(arch="ref") != base

    def test_machine_pins_change_the_key(self):
        assert _key(arch="dva@lanes=2") != _key(arch="dva")
        assert _key(arch="dva@bypass=off") != _key(arch="dva")

    def test_editing_a_field_default_changes_the_key(self, monkeypatch):
        # The spec string leaves default fields out, so a plain "dva" spells
        # the same before and after a default changes; the key must not.
        def dva_key():
            machine = SpecArchitecture("dva", MachineSpec(family="dva"))
            return cell_key("trfd", 1.0, 50, machine, CONFIG)

        base = dva_key()
        fields = tuple(
            replace(info, default=32) if info.attribute == "instruction_queue" else info
            for info in machine_module.FIELDS
        )
        monkeypatch.setattr(machine_module, "FIELDS", fields)
        assert MachineSpec(family="dva").to_string() == "dva"
        assert dva_key() != base

    @pytest.mark.parametrize(
        "label, spellings",
        [
            (
                "dva-nobypass",
                [("dva-nobypass", ()), ("dva@bypass=off", ()),
                 ("dva@lanes=1,bypass=off", ()), ("dva", (("bypass", False),))],
            ),
            (
                "dva@lanes=2,bypass=off",
                [("dva-nobypass@lanes=2", ()), ("dva-nobypass", (("lanes", 2),)),
                 ("dva@lanes=2,bypass=off", ())],
            ),
            (
                "dva@lanes=2,ports=2",
                [("dva", (("ports", 2), ("lanes", 2))), ("dva@ports=2,lanes=2", ()),
                 ("dva@lanes=2,ports=2", ())],
            ),
        ],
    )
    def test_every_spelling_of_one_machine_gets_one_key(self, label, spellings):
        # The label lands on the result as provenance and is hashed, so it is
        # a function of the machine alone: one machine, one label, one key.
        machines = [architecture(name, overrides) for name, overrides in spellings]
        assert {machine.name for machine in machines} == {label}
        assert len({cell_key("trfd", 1.0, 50, m, CONFIG) for m in machines}) == 1

    def test_latency_in_config_does_not_leak_into_the_key(self):
        # The cell's latency is an explicit argument; the config's own
        # latency field is overridden per cell and must not split keys.
        assert _key(config=RunConfig(latency=99)) == _key(config=RunConfig(latency=1))


class TestEveryMachineHasAKey:
    @pytest.mark.parametrize(
        "arch", [*architecture_names(), "dva-nobypass@lanes=2,ports=2"]
    )
    def test_registered_and_inline_machines_get_a_sha256_key(self, arch):
        key = _key(arch=arch)
        assert isinstance(key, str) and len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)
