"""Golden-equivalence tests for the engine-based simulators.

``golden_cycles.json`` pins ``total_cycles`` and the key stall counters that
the *seed* (pre-``repro.engine``) simulators produced for every cell of the
paper's grid — six Perfect Club programs x memory latencies {1, 50, 100} x
{ref, dva, dva-nobypass}.  ``queue_depth_cycles.json`` pins the same
counters at latency 50 for ``dva`` machines with one queue at its shallowest
corner (one- and two-entry instruction queues, a one-entry AVDQ, VADQ or
SSAQ), where full queues stall the processors.  These tests assert that
the simulators, however they are implemented internally, still reproduce
those numbers exactly.
``trace_digests.json`` pins the traces the cells run on: a rebuilt trace
must keep its record count, basic-block count and stream digest.
``payload_digests.json`` pins each paper-grid cell's ``RunResult.to_json()``
byte for byte, as the store encodes it.

A failure here means the timing model changed.  That is a bug unless the
change was deliberate and reviewed, in which case the snapshot is regenerated
with ``python scripts/make_golden.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import Runner, SweepSpec
from repro.engine import TIMING_MODEL_VERSION
from repro.store.keys import KEY_SCHEME_VERSION
from repro.trace.generator import TRACE_GENERATOR_VERSION

GOLDEN_PATH = Path(__file__).parent / "golden_cycles.json"
QUEUE_DEPTH_PATH = Path(__file__).parent / "queue_depth_cycles.json"
TRACE_DIGESTS_PATH = Path(__file__).parent / "trace_digests.json"
PAYLOAD_DIGESTS_PATH = Path(__file__).parent / "payload_digests.json"
MAKE_GOLDEN = Path(__file__).resolve().parents[2] / "scripts" / "make_golden.py"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def sweep(golden):
    spec = SweepSpec(
        programs=tuple(golden["spec"]["programs"]),
        latencies=tuple(golden["spec"]["latencies"]),
        architectures=tuple(golden["spec"]["architectures"]),
    )
    return Runner(jobs=1).run(spec)


@pytest.mark.parametrize(
    "name",
    [
        "golden_cycles.json",
        "queue_depth_cycles.json",
        "fuzz_cycles.json",
        "trace_digests.json",
    ],
)
def test_snapshot_records_the_current_versions(name):
    # scripts/make_golden.py refuses to change cells while these still match
    # the code, so a timing change must bump a version to be re-snapshotted.
    with (Path(__file__).parent / name).open() as handle:
        versions = json.load(handle)["versions"]
    assert versions == {
        "timing_model": TIMING_MODEL_VERSION,
        "trace_generator": TRACE_GENERATOR_VERSION,
    }


def test_snapshot_covers_the_full_grid(golden):
    spec = golden["spec"]
    expected = len(spec["programs"]) * len(spec["latencies"]) * len(spec["architectures"])
    assert len(golden["cells"]) == expected == 54


def test_every_cell_matches_the_seed_exactly(golden, sweep):
    mismatches = []
    for result in sweep:
        key = f"{result.program}/{result.latency}/{result.architecture}"
        expected = golden["cells"][key]
        actual = {name: result.detail[name] for name in expected}
        if actual != expected:
            mismatches.append((key, expected, actual))
    assert not mismatches, (
        "engine-based simulators diverged from the seed timing:\n"
        + "\n".join(
            f"  {key}: expected {expected}, got {actual}"
            for key, expected, actual in mismatches
        )
    )


def test_total_cycles_match_per_architecture(golden, sweep):
    """Redundant with the cell check, but failure output localizes the machine."""
    for architecture in golden["spec"]["architectures"]:
        expected = {
            key: cell["total_cycles"]
            for key, cell in golden["cells"].items()
            if key.endswith("/" + architecture)
        }
        actual = {
            f"{r.program}/{r.latency}/{r.architecture}": r.total_cycles
            for r in sweep.by_architecture(architecture)
        }
        assert actual == expected


def test_queue_depth_corners_match_their_snapshot():
    with QUEUE_DEPTH_PATH.open() as handle:
        snapshot = json.load(handle)
    spec = SweepSpec(
        programs=tuple(snapshot["spec"]["programs"]),
        latencies=tuple(snapshot["spec"]["latencies"]),
        architectures=tuple(snapshot["spec"]["architectures"]),
    )
    results = Runner(jobs=1).run(spec)
    assert len(results) == len(snapshot["cells"]) == 30
    mismatches = []
    for result in results:
        key = f"{result.program}/{result.latency}/{result.architecture}"
        expected = snapshot["cells"][key]
        if {name: result.detail[name] for name in expected} != expected:
            mismatches.append(key)
    assert not mismatches, f"queue-depth cells diverged: {mismatches}"


@pytest.fixture(scope="module")
def make_golden():
    spec = importlib.util.spec_from_file_location("make_golden", MAKE_GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_streams_match_their_digests(make_golden):
    with TRACE_DIGESTS_PATH.open() as handle:
        snapshot = json.load(handle)
    cells = make_golden.trace_digests_payload()["cells"]
    assert len(cells) == len(snapshot["cells"]) == 12
    mismatches = sorted(key for key in cells if cells[key] != snapshot["cells"].get(key))
    assert not mismatches, (
        f"trace streams diverged from their digests: {mismatches}; a deliberate "
        "stream change bumps TRACE_GENERATOR_VERSION"
    )


def test_payloads_match_their_digests(golden, sweep, make_golden):
    with PAYLOAD_DIGESTS_PATH.open() as handle:
        snapshot = json.load(handle)
    assert snapshot["versions"] == {
        "timing_model": TIMING_MODEL_VERSION,
        "trace_generator": TRACE_GENERATOR_VERSION,
        "key_scheme": KEY_SCHEME_VERSION,
    }
    assert snapshot["spec"] == golden["spec"]
    cells = {
        f"{result.program}/{result.latency}/{result.architecture}":
            make_golden.payload_digest(result)
        for result in sweep
    }
    assert len(cells) == len(snapshot["cells"]) == 54
    mismatches = sorted(key for key in cells if cells[key] != snapshot["cells"].get(key))
    assert not mismatches, (
        f"result payloads diverged from their digests: {mismatches}; reports and "
        "the store read these bytes"
    )


def _digest_snapshot(versions, digest):
    return {"cells": {"trfd/1/ref": digest}, "versions": versions}


def test_make_golden_refuses_a_changed_digest_at_the_same_versions(tmp_path, make_golden):
    path = tmp_path / "payload_digests.json"
    path.write_text(json.dumps(_digest_snapshot(make_golden.PAYLOAD_VERSIONS, "0" * 64)))
    unchanged = _digest_snapshot(make_golden.PAYLOAD_VERSIONS, "0" * 64)
    changed = _digest_snapshot(make_golden.PAYLOAD_VERSIONS, "1" * 64)
    assert make_golden.drifted_cells(str(path), unchanged) == []
    assert make_golden.drifted_cells(str(path), changed) == ["trfd/1/ref"]


def test_make_golden_accepts_a_changed_digest_after_a_version_bump(tmp_path, make_golden):
    path = tmp_path / "payload_digests.json"
    path.write_text(json.dumps(_digest_snapshot(make_golden.PAYLOAD_VERSIONS, "0" * 64)))
    bumped = {**make_golden.PAYLOAD_VERSIONS, "key_scheme": KEY_SCHEME_VERSION + 1}
    assert make_golden.drifted_cells(str(path), _digest_snapshot(bumped, "1" * 64)) == []
    missing = str(tmp_path / "absent.json")
    assert make_golden.drifted_cells(missing, _digest_snapshot(bumped, "1" * 64)) == []
