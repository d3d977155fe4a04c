#!/usr/bin/env python
"""Regenerate the golden snapshots in tests/golden/.

``golden_cycles.json`` pins ``total_cycles`` and the key stall counters of
every cell of the paper grid (six Perfect Club programs x latencies
{1, 50, 100} x the paper's three machines).  ``queue_depth_cycles.json``
pins the same counters for the six programs at latency 50 on ``dva``
machines with one queue cut to its shallowest corner, so the paths a full
queue takes are pinned on real programs too.  ``fuzz_cycles.json`` pins the
same counters — or the exact simulation error — for the first cases of the
fuzzer's default master seed (see :mod:`repro.core.fuzz`), so random
machines are pinned too.  ``trace_digests.json`` pins the dynamic stream
itself: per program and scale, the record count, the basic blocks executed
and a SHA-256 over the instruction table and the four trace columns.
``payload_digests.json`` pins the bytes reports and the store read: a
SHA-256 of each paper-grid cell's ``RunResult.to_json()``, encoded the way
the store writes it.

Every snapshot records the timing-model and trace-generator versions they
were taken at; the payload digests record the key-scheme version too.  A
deliberate timing-model change bumps one of those constants; this script
refuses (exit 1, listing the changed cells) to overwrite cells that differ
while the recorded versions still equal the code's, so numbers never drift
silently.  Regenerate only after a deliberate, reviewed change:

    PYTHONPATH=src python scripts/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import Runner, SweepSpec  # noqa: E402
from repro.core.fuzz import (  # noqa: E402
    DEFAULT_SEED,
    SNAPSHOT_CASES,
    snapshot_cells,
    snapshot_keys,
)
from repro.engine import TIMING_MODEL_VERSION  # noqa: E402
from repro.store.keys import KEY_SCHEME_VERSION  # noqa: E402
from repro.trace.generator import TRACE_GENERATOR_VERSION  # noqa: E402
from repro.workloads.perfect_club import load_program  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "golden")

PROGRAMS = ("ARC2D", "BDNA", "DYFESM", "FLO52", "SPEC77", "TRFD")
LATENCIES = (1, 50, 100)
ARCHITECTURES = ("ref", "dva", "dva-nobypass")

QUEUE_DEPTH_LATENCIES = (50,)
QUEUE_DEPTH_ARCHITECTURES = (
    "dva@iq=1",
    "dva@iq=2",
    "dva@avdq=1",
    "dva@vadq=1",
    "dva@ssaq=1",
)

TRACE_SCALES = (0.1, 1)

VERSIONS = {
    "timing_model": TIMING_MODEL_VERSION,
    "trace_generator": TRACE_GENERATOR_VERSION,
}
PAYLOAD_VERSIONS = {**VERSIONS, "key_scheme": KEY_SCHEME_VERSION}


def grid_payload(latencies: tuple, architectures: tuple) -> dict:
    spec = SweepSpec(
        programs=PROGRAMS, latencies=latencies, architectures=architectures
    )
    cells = {}
    for result in Runner(jobs=1).run(spec):
        key = f"{result.program}/{result.latency}/{result.architecture}"
        family = "ref" if result.architecture.startswith("ref") else "dva"
        cells[key] = {name: result.detail[name] for name in snapshot_keys(family)}
    return {
        "spec": {
            "programs": list(PROGRAMS),
            "latencies": list(latencies),
            "architectures": list(architectures),
        },
        "cells": cells,
        "versions": VERSIONS,
    }


def payload_digest(result) -> str:
    """SHA-256 of ``result.to_json()`` encoded the way the store writes it."""
    encoded = json.dumps(result.to_json(), separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


def payload_digests_payload() -> dict:
    spec = SweepSpec(programs=PROGRAMS, latencies=LATENCIES, architectures=ARCHITECTURES)
    cells = {
        f"{result.program}/{result.latency}/{result.architecture}": payload_digest(result)
        for result in Runner(jobs=1).run(spec)
    }
    return {
        "spec": {
            "programs": list(PROGRAMS),
            "latencies": list(LATENCIES),
            "architectures": list(ARCHITECTURES),
        },
        "cells": cells,
        "versions": PAYLOAD_VERSIONS,
    }


def fuzz_payload() -> dict:
    return {
        "spec": {"seed": DEFAULT_SEED, "cases": SNAPSHOT_CASES},
        "cells": snapshot_cells(DEFAULT_SEED, SNAPSHOT_CASES),
        "versions": VERSIONS,
    }


def trace_digest(trace) -> str:
    """SHA-256 over the instruction table and the four trace columns.

    An instruction enters as the ``repr`` of its six compared fields; the
    facts it derives from them when it is built add nothing those fields do
    not already decide.
    """
    digest = hashlib.sha256()
    for instruction in trace.instructions:
        fields = (
            instruction.opcode,
            instruction.destinations,
            instruction.sources,
            instruction.memory,
            instruction.immediate,
            instruction.label,
        )
        digest.update(repr(fields).encode() + b"\n")
    for column in (trace.insn, trace.vl, trace.stride, trace.addr):
        digest.update(",".join(map(str, column)).encode() + b"\n")
    return digest.hexdigest()


def trace_digests_payload() -> dict:
    cells = {}
    for program in PROGRAMS:
        for scale in TRACE_SCALES:
            trace = load_program(program).build_trace(scale=scale)
            cells[f"{program}/{scale}"] = {
                "blocks_executed": trace.blocks_executed,
                "records": len(trace),
                "sha256": trace_digest(trace),
            }
    return {
        "spec": {"programs": list(PROGRAMS), "scales": list(TRACE_SCALES)},
        "cells": cells,
        "versions": VERSIONS,
    }


def drifted_cells(path: str, payload: dict) -> list:
    """Cells that would change although the recorded versions did not."""
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        recorded = json.load(handle)
    if recorded.get("versions") != payload["versions"]:
        return []
    old, new = recorded["cells"], payload["cells"]
    return sorted(key for key in set(old) | set(new) if old.get(key) != new.get(key))


def main() -> int:
    snapshots = {
        os.path.join(GOLDEN_DIR, "golden_cycles.json"): grid_payload(
            LATENCIES, ARCHITECTURES
        ),
        os.path.join(GOLDEN_DIR, "queue_depth_cycles.json"): grid_payload(
            QUEUE_DEPTH_LATENCIES, QUEUE_DEPTH_ARCHITECTURES
        ),
        os.path.join(GOLDEN_DIR, "fuzz_cycles.json"): fuzz_payload(),
        os.path.join(GOLDEN_DIR, "trace_digests.json"): trace_digests_payload(),
        os.path.join(GOLDEN_DIR, "payload_digests.json"): payload_digests_payload(),
    }
    refused = False
    for path, payload in snapshots.items():
        drifted = drifted_cells(path, payload)
        if drifted:
            refused = True
            print(
                f"refusing to overwrite {os.path.normpath(path)}: "
                f"{len(drifted)} cells changed with versions unchanged "
                f"{payload['versions']}; bump TIMING_MODEL_VERSION, "
                f"TRACE_GENERATOR_VERSION or KEY_SCHEME_VERSION if the change "
                f"is deliberate: "
                + ", ".join(drifted),
                file=sys.stderr,
            )
    if refused:
        return 1
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for path, payload in snapshots.items():
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.normpath(path)} ({len(payload['cells'])} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
