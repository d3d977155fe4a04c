"""Unit tests for the content-addressed cache-key derivation."""

from dataclasses import replace

from repro.core import RunConfig, architecture
from repro.refarch.config import ReferenceConfig
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
        assert KEY_SCHEME_VERSION == 2


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

    def test_distinct_labels_for_the_same_machine_get_distinct_keys(self):
        # "dva-nobypass" and "dva@bypass=off" resolve to the same machine but
        # carry different labels; the label lands on the result as provenance,
        # so a hit must restore it — the keys must differ.
        assert _key(arch="dva-nobypass") != _key(arch="dva@bypass=off")

    def test_inherited_run_config_fields_change_the_key(self):
        # The canonical spec string alone under-identifies a machine whose
        # spec inherits fields from the RunConfig; the key must capture the
        # fully-resolved configuration.
        tweaked = replace(
            CONFIG, reference=ReferenceConfig(functional_unit_startup=7)
        )
        assert _key(arch="ref", config=tweaked) != _key(arch="ref")
        # ... and a block the family ignores must NOT change the key.
        assert _key(arch="dva", config=tweaked) == _key(arch="dva")

    def test_latency_in_config_does_not_leak_into_the_key(self):
        # The cell's latency is an explicit argument; the config's own
        # latency field is overridden per cell and must not split keys.
        assert _key(config=RunConfig(latency=99)) == _key(config=RunConfig(latency=1))


class TestUncacheable:
    def test_non_spec_backed_simulator_has_no_key(self):
        class Opaque:
            name = "opaque"
            description = "hand-written simulator"

            def simulate(self, trace, config):  # pragma: no cover - unused
                raise NotImplementedError

        assert cell_key("trfd", 1.0, 1, Opaque(), CONFIG) is None
