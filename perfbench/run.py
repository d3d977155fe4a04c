"""The repository benchmark: end-to-end metrics per workload, or its layer ledger.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that prints the per-layer table and reports the
per-layer metrics.  Every answer is checked against the golden snapshot
(paper grid) or ``expected_cycles.json`` (cell universe U).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (a failure is an exception, a non-200 answer, or a
``total_cycles`` that differs from the table) and ``metrics``.

Workloads: ``paper-cold`` and ``serve-mixed`` (why each one is in
BENCHMARK.json), and ``resume-warm``, the store-read ledger.
The simulated model is unvalidated against the paper: the repository holds
no reference numbers from it, so no accuracy error is reported.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: ``resume-warm`` runs and traces like the others but is left out of
#: BENCHMARK.json: on the two-CPU reference host its cells/s read 0.21-0.47
#: apart (interquartile range over median, ten seeds) while ``paper-cold``
#: read 0.03-0.34, so no bound the benchmark may set would hold for it.
WORKLOADS = ("paper-cold", "resume-warm", "serve-mixed")
REQUIRED = ("src/repro/__init__.py", "tests/golden/golden_cycles.json")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="a reduced pass for self-tests: one program (TRFD), one set-up probe",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: not a repository checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench import serve, sweeps
    from perfbench.host import Context
    from perfbench.ledger import END_TO_END, PER_LAYER, UNITS

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    ctx = Context(seed=args.seed, seconds=args.seconds, work_dir=work_dir)
    if args.trace:
        ctx.spans_path = scratch / f"{args.workload}.spans.jsonl"
    if args.smoke:
        ctx.programs, ctx.setup_probes, ctx.min_passes = ("TRFD",), 1, 1
    try:
        if args.workload == "serve-mixed":
            outcome = (serve.trace if args.trace else serve.measure)(ctx)
        else:
            run = sweeps.trace if args.trace else sweeps.measure
            outcome = run(args.workload, ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in outcome.table:
        print(line)
    for error in outcome.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **outcome.info}))
    names = [name for name, _unit in (PER_LAYER if args.trace else END_TO_END)]
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": UNITS[name]} for name in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
