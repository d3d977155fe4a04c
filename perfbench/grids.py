"""The benchmark's inputs and the tables its outputs are checked against.

Two grids:

* the **paper grid** — six programs x latencies {1, 50, 100} x {ref, dva,
  dva-nobypass}, 54 cells, exactly the cells of
  ``tests/golden/golden_cycles.json``;
* the **cell universe U** — six programs x latencies {1, 50, 100} x lanes
  {1, 2, 4} x ports {1, 2} x {ref, dva}, 216 cells, checked against
  ``expected_cycles.json`` in this directory.

``python3 -m perfbench.grids`` (from the repository root) regenerates
``expected_cycles.json`` by simulating U; it refuses to write a table whose
lanes=1, ports=1 cells disagree with the golden snapshot.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected_cycles.json"
GOLDEN_PATH = ROOT / "tests" / "golden" / "golden_cycles.json"

PROGRAMS = ("ARC2D", "BDNA", "DYFESM", "FLO52", "SPEC77", "TRFD")
LATENCIES = (1, 50, 100)
PAPER_ARCHITECTURES = ("ref", "dva", "dva-nobypass")
U_ARCHITECTURES = ("ref", "dva")
U_AXES = (("lanes", (1, 2, 4)), ("ports", (1, 2)))

#: A cell as the benchmark names it: (program, latency, machine label).
Cell = Tuple[str, int, str]


def cell_id(program: str, latency: int, label: str) -> str:
    return f"{program}/{latency}/{label}"


def paper_spec(programs: Sequence[str] = PROGRAMS):
    """The paper grid as one sweep.

    Its cell order is fixed rather than drawn from the seed: time-to-result
    percentiles depend on the order cells are visited in, and a seed must
    not move a metric that no code change moved.
    """
    from repro.core.experiment import SweepSpec

    return SweepSpec(
        programs=tuple(programs), latencies=LATENCIES, architectures=PAPER_ARCHITECTURES
    )


def universe_spec(programs: Sequence[str] = PROGRAMS):
    """The cell universe U as one sweep grid, in a fixed order."""
    from repro.core.experiment import SweepSpec

    return SweepSpec(
        programs=tuple(programs), latencies=LATENCIES, architectures=U_ARCHITECTURES, axes=U_AXES
    )


def universe_cells(programs: Sequence[str] = PROGRAMS) -> List[Cell]:
    """Every cell of U, labelled the way a sweep labels it (``dva@lanes=2``)."""
    from repro.core.experiment import resolve_sweep_machines

    labels = [machine.name for machine in resolve_sweep_machines(universe_spec(programs))]
    return sorted(
        (program, latency, label)
        for program in programs
        for latency in LATENCIES
        for label in labels
    )


def load_expected() -> Dict[str, int]:
    """``cell id -> total_cycles`` for every cell of U."""
    with EXPECTED_PATH.open() as handle:
        return json.load(handle)["total_cycles"]


def load_golden() -> Dict[str, int]:
    """``cell id -> total_cycles`` for every cell of the paper grid."""
    with GOLDEN_PATH.open() as handle:
        cells = json.load(handle)["cells"]
    return {key: int(cell["total_cycles"]) for key, cell in cells.items()}


def golden_disagreements(expected: Dict[str, int], golden: Dict[str, int]) -> List[str]:
    """Cells of U on the golden grid (lanes=1, ports=1) whose cycles differ."""
    return [
        key
        for key, cycles in sorted(expected.items())
        if key.rsplit("/", 1)[1] in U_ARCHITECTURES and golden.get(key) != cycles
    ]


def mismatches(results, table: Dict[str, int]) -> List[str]:
    """Result cells whose ``total_cycles`` is missing from or differs in ``table``."""
    wrong = []
    for result in results:
        key = cell_id(result.program, result.latency, result.architecture)
        if table.get(key) != result.total_cycles:
            wrong.append(f"{key}: got {result.total_cycles}, expected {table.get(key)}")
    return wrong


def _write_expected() -> int:
    from repro.core.experiment import Runner

    with Runner(jobs=2) as runner:
        sweep = runner.run(universe_spec())
    table = {
        cell_id(r.program, r.latency, r.architecture): r.total_cycles for r in sweep
    }
    bad = golden_disagreements(table, load_golden())
    if bad:
        print(f"refusing to write: {len(bad)} cells disagree with golden: {bad[:5]}")
        return 1
    payload = {
        "about": "total_cycles of every cell of U; lanes=1,ports=1 cells equal golden",
        "total_cycles": dict(sorted(table.items())),
    }
    EXPECTED_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(table)} cells to {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(_write_expected())
