"""Golden equivalence between the named presets and their inline machine specs.

Every preset is a resolved spec, and a machine's label is a function of its
spec alone.  These tests pin that contract: writing one of the paper's
machines *inline* (``"dva@bypass=off"``) gives exactly the result of naming
the preset (``"dva-nobypass"``), label included, so the declarative path
cannot drift from the named path without failing loudly.  Full-metric
equality (the whole ``detail`` payload, not just ``total_cycles``) over two
programs and two latencies keeps the check cheap but sharp.
"""

import json

import pytest

from repro import Runner, SweepSpec

# Every preset and inline spellings that must be the same machine, one
# sweep per column (a sweep may not name one machine twice).
PRESET_EQUIVALENTS = {
    "ref": ("ref@lanes=1,ports=1", "ref@chaining=off"),
    "dva": ("dva@lanes=1,ports=1,bypass=on", "dva-nobypass@bypass=on"),
    "dva-nobypass": ("dva@bypass=off", "dva@iq=16,bypass=off"),
}

PROGRAMS = ("DYFESM", "TRFD")
LATENCIES = (1, 50)


def _sweep(runner, architectures):
    return runner.run(
        SweepSpec(programs=PROGRAMS, latencies=LATENCIES, architectures=architectures, scale=0.2)
    )


@pytest.fixture(scope="module")
def sweeps():
    runner = Runner(jobs=1)
    named = _sweep(runner, tuple(PRESET_EQUIVALENTS))
    inline = [_sweep(runner, column) for column in zip(*PRESET_EQUIVALENTS.values())]
    return named, inline


@pytest.mark.parametrize("preset", sorted(PRESET_EQUIVALENTS))
def test_preset_is_cycle_identical_to_inline_spec(preset, sweeps):
    named, inline = sweeps
    for sweep in inline:
        for program in PROGRAMS:
            for latency in LATENCIES:
                a = named.get(program, latency, preset)
                b = sweep.get(program, latency, preset)
                assert a.total_cycles == b.total_cycles, (preset, program, latency)
                assert a.detail == b.detail, (preset, program, latency)


def test_inline_and_named_specs_resolve_equal(sweeps):
    """The whole results match byte for byte: label and provenance spec too."""
    named, inline = sweeps
    for sweep in inline:
        assert sweep.architecture_labels() == list(PRESET_EQUIVALENTS)
        for a, b in zip(named, sweep):
            assert json.dumps(a.to_json()) == json.dumps(b.to_json()), a.architecture
