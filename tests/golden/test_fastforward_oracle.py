"""The steady-state fast-forward is exact: skipping changes no result byte.

Both issue loops skip the kernel invocations whose outcome a steady state
makes predictable (:mod:`repro.engine.fastforward`).  A trace without
invocation marks is simulated row by row, so each check here simulates a
trace twice — as built, and :meth:`~repro.trace.columns.Trace.unmarked` —
and requires ``RunResult.to_json()`` to be byte-identical, over the golden
paper grid, the queue-depth corners, the fuzz snapshot's cases, the paper
programs at larger scales, a lanes × ports grid and fuzz cases with enough
invocations to skip.  ``to_json`` rounds the port-idle fraction and keeps
only the all-idle state, so every check also compares the interval
aggregates unrounded: the whole state breakdown, each unit's busy time, the
AVDQ histogram and its last leave.  The skip must also pay: it covers at
least 80% of the golden grid's rows.
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.errors import SimulationError
from repro.core.fuzz import DEFAULT_SEED, SNAPSHOT_CASES, case_seed, generate_case
from repro.core.registry import architecture
from repro.core.result import RunResult
from repro.dva.result import DecoupledResult
from repro.dva.simulator import DecoupledSimulator
from repro.refarch.simulator import ReferenceSimulator
from repro.workloads.perfect_club import load_program

GOLDEN = Path(__file__).parent
PAPER_MACHINES = ("ref", "dva", "dva-nobypass")
PROGRAMS = ("ARC2D", "BDNA", "DYFESM", "FLO52", "SPEC77", "TRFD")


def _payload(result, label, spec):
    wrap = RunResult.from_reference if spec.family == "ref" else RunResult.from_decoupled
    return json.dumps(wrap(result, architecture=label, spec=spec.to_json()).to_json())


def _aggregates(result):
    """Every interval aggregate of a result, unrounded and in key order."""
    units = [result.fu1_busy, result.fu2_busy, result.port_busy]
    aggregates = {"breakdown": list(result.state_breakdown().items())}
    if isinstance(result, DecoupledResult):
        aggregates["avdq"] = list(result.avdq_histogram().items())
        aggregates["last_end"] = result.avdq_occupancy.last_end()
    aggregates["busy"] = [(unit.name, unit.busy_time()) for unit in units]
    return aggregates


def _run(trace, spec, latency, label):
    """``((payload, aggregates), rows skipped)`` of one run, or ``(error text, 0)``."""
    simulator = ReferenceSimulator if spec.family == "ref" else DecoupledSimulator
    try:
        result = simulator(spec, latency).run(trace)
    except SimulationError as exc:
        return f"error: {exc}", 0
    return (_payload(result, label, spec), _aggregates(result)), result.skipped_rows


def _differences(trace, machines, latencies):
    """Cells whose marked and unmarked runs differ, and the rows skipped."""
    unmarked = trace.unmarked()
    differing, skipped = [], 0
    for name in machines:
        machine = architecture(name)
        for latency in latencies:
            marked, rows = _run(trace, machine.spec, latency, machine.name)
            plain, _ = _run(unmarked, machine.spec, latency, machine.name)
            skipped += rows
            if marked != plain:
                differing.append(f"{trace.name}/{latency}/{name}")
    return differing, skipped


def _snapshot_spec(name):
    with (GOLDEN / name).open() as handle:
        return json.load(handle)["spec"]


def test_golden_grid_is_identical_and_mostly_skipped():
    spec = _snapshot_spec("golden_cycles.json")
    differing, skipped, rows = [], 0, 0
    for program in spec["programs"]:
        trace = load_program(program).build_trace()
        cells, program_skipped = _differences(
            trace, spec["architectures"], spec["latencies"]
        )
        differing += cells
        skipped += program_skipped
        rows += len(trace) * len(spec["architectures"]) * len(spec["latencies"])
    assert not differing
    assert skipped >= 0.8 * rows, f"skipped {skipped} of {rows} rows"


def test_queue_depth_corners_are_identical():
    spec = _snapshot_spec("queue_depth_cycles.json")
    differing = []
    for program in spec["programs"]:
        trace = load_program(program).build_trace()
        differing += _differences(trace, spec["architectures"], spec["latencies"])[0]
    assert not differing


@pytest.mark.parametrize("scale", [4, 16])
def test_paper_programs_at_larger_scales_are_identical(scale):
    differing = []
    for program in PROGRAMS:
        trace = load_program(program).build_trace(scale)
        differing += _differences(trace, PAPER_MACHINES, (1, 100))[0]
    assert not differing


def test_lanes_and_ports_are_identical():
    # Two ports run the combined "any port busy" recorder, as serve-mixed's
    # two-port machines do.
    machines = [
        f"{family}@lanes={lanes},ports={ports}"
        for family in ("ref", "dva")
        for lanes in (1, 2, 4)
        for ports in (1, 2)
    ]
    differing = []
    for program in PROGRAMS:
        trace = load_program(program).build_trace()
        differing += _differences(trace, machines, (50,))[0]
    assert not differing


def _fuzz_differences(case):
    trace = case.build_trace()
    marked = _run(trace, case.spec, case.latency, case.family)
    plain = _run(trace.unmarked(), case.spec, case.latency, case.family)
    return marked[0] != plain[0], marked[1]


def test_fuzz_snapshot_cases_are_identical():
    cases = [generate_case(case_seed(DEFAULT_SEED, index)) for index in range(SNAPSHOT_CASES)]
    differing = [case.describe() for case in cases if _fuzz_differences(case)[0]]
    assert not differing


def test_fuzz_cases_with_many_invocations_are_identical():
    # Six to twelve invocations give the walk room to match and skip on
    # random lanes, ports and queue depths.
    rng = random.Random(DEFAULT_SEED)
    cases = [
        replace(generate_case(case_seed(DEFAULT_SEED + 1, index)), invocations=rng.randint(6, 12))
        for index in range(50)
    ]
    differing, skipping = [], 0
    for case in cases:
        differs, rows = _fuzz_differences(case)
        skipping += rows > 0
        if differs:
            differing.append(case.describe())
    assert not differing
    # The check only bites where the walk skips: most of these cases must.
    assert skipping >= len(cases) // 2, f"only {skipping} of {len(cases)} cases skipped"
