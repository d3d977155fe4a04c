#!/usr/bin/env python
"""Seeded fuzzer: random machines checked against invariants and a snapshot.

Generates seeded random (machine, program, latency) cases via
:mod:`repro.core.fuzz` and checks each one against the conservation
invariants and, for the cases it covers, the frozen snapshot in
``tests/golden/fuzz_cycles.json`` (total cycles, per-family counters, or
the exact text of a simulation error).

Every case is deterministic in ``(--seed, index)``, so a failing batch
always prints the one-case repro command:

    PYTHONPATH=src python scripts/fuzz.py --seed <master> --case <index>

Run a batch from the repository root:

    PYTHONPATH=src python scripts/fuzz.py --seed 20260808 --cases 200
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SNAPSHOT_PATH = os.path.join(ROOT, "tests", "golden", "fuzz_cycles.json")

sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.fuzz import (  # noqa: E402
    DEFAULT_SEED,
    case_seed,
    generate_case,
    repro_command,
    run_case,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"master seed; every case derives from it (default: {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--cases", type=int, default=200,
        help="number of cases to run (default: 200)",
    )
    parser.add_argument(
        "--case", type=int, default=None, metavar="INDEX",
        help="run exactly one case by index (the minimized repro mode)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print every case description, not just failures",
    )
    args = parser.parse_args(argv)

    with open(SNAPSHOT_PATH) as handle:
        snapshot = json.load(handle)["cells"]
    indices = [args.case] if args.case is not None else range(args.cases)
    failures = pinned = 0
    started = time.perf_counter()
    for index in indices:
        case = generate_case(case_seed(args.seed, index))
        if args.verbose:
            print(f"case {index}: {case.describe()}")
        expected = snapshot.get(str(case.seed))
        pinned += expected is not None
        failure = run_case(case, expected)
        if failure is None:
            continue
        failures += 1
        print(f"FAIL at case {index}: {failure}", file=sys.stderr)
        print(f"  repro: {repro_command(args.seed, index)}", file=sys.stderr)
    elapsed = time.perf_counter() - started
    total = len(indices)
    print(
        f"fuzz: {total - failures}/{total} cases pass "
        f"({pinned} against the snapshot; seed {args.seed}, {elapsed:.1f}s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
