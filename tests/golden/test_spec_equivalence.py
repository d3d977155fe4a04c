"""Golden equivalence between named presets and their inline machine specs.

The MachineSpec redesign made every registry preset a resolved spec.  These
tests pin the other half of that contract: writing the machine *inline*
(``"dva@ports=2"``) is cycle-identical to naming the preset (``"dva-2port"``),
so the declarative path cannot drift from the named path without failing
loudly.  Full-metric equality (the whole ``detail`` payload, not just
``total_cycles``) over two programs and two latencies keeps the check cheap
but sharp.
"""

import pytest

from repro import Runner, SweepSpec, machine_spec

# Every named preset and the inline spec that must be the same machine.
PRESET_EQUIVALENTS = {
    "ref": "ref@lanes=1,ports=1",
    "dva": "dva@lanes=1,ports=1,bypass=on",
    "dva-nobypass": "dva@bypass=off",
    "ref-2lane": "ref@lanes=2",
    "dva-2port": "dva@ports=2",
}

PROGRAMS = ("DYFESM", "TRFD")
LATENCIES = (1, 50)


@pytest.fixture(scope="module")
def sweeps():
    runner = Runner(jobs=1)
    named = runner.run(
        SweepSpec(
            programs=PROGRAMS,
            latencies=LATENCIES,
            architectures=tuple(PRESET_EQUIVALENTS),
            scale=0.2,
        )
    )
    inline = runner.run(
        SweepSpec(
            programs=PROGRAMS,
            latencies=LATENCIES,
            architectures=tuple(PRESET_EQUIVALENTS.values()),
            scale=0.2,
        )
    )
    return named, inline


@pytest.mark.parametrize("preset", sorted(PRESET_EQUIVALENTS))
def test_preset_is_cycle_identical_to_inline_spec(preset, sweeps):
    named, inline = sweeps
    # Sweep cells are labelled by the spec's *canonical* string, which elides
    # default-valued pins ("ref@lanes=1,ports=1" is just "ref").
    inline_label = machine_spec(PRESET_EQUIVALENTS[preset]).to_string()
    for program in PROGRAMS:
        for latency in LATENCIES:
            a = named.get(program, latency, preset)
            b = inline.get(program, latency, inline_label)
            assert a.total_cycles == b.total_cycles, (preset, program, latency)
            assert a.detail == b.detail, (preset, program, latency)


def test_inline_and_named_specs_resolve_equal(sweeps):
    """The provenance specs match too, not just the timing."""
    named, inline = sweeps
    for preset, inline_text in PRESET_EQUIVALENTS.items():
        a = named.get(PROGRAMS[0], 1, preset)
        b = inline.get(
            PROGRAMS[0], 1, machine_spec(inline_text).to_string()
        )
        assert a.spec == b.spec, preset
