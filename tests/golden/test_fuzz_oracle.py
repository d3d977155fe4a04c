"""The fuzz oracle: invariants, a frozen snapshot and metamorphic relations.

Every case of the frozen snapshot (``fuzz_cycles.json``, written by
``scripts/make_golden.py``) must pass the conservation invariants and
reproduce its snapshot cell exactly.  On top of that, four metamorphic
relations must hold across each case's neighbours:

* ``latency`` — latency 1 → 7 → 50 → 100 is never faster;
* ``lanes`` — one more lane is never slower;
* ``ports`` — one more memory port is never slower;
* ``bypass`` — on the DVA, the store→load bypass on is never slower.

Known violations are listed in :data:`EXCEPTIONS`, keyed by (case seed,
relation), each with a one-line explanation; an unlisted violation fails,
and so does a listed one that no longer reproduces.  Every failure prints
the one-case repro command of ``scripts/fuzz.py``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.fuzz import (
    DEFAULT_SEED,
    LATENCIES,
    SNAPSHOT_CASES,
    case_seed,
    check_invariants,
    generate_case,
    repro_command,
    run_case,
)

SNAPSHOT_PATH = Path(__file__).parent / "fuzz_cycles.json"

#: Known metamorphic violations: (case seed, relation) -> explanation.
EXCEPTIONS = {
    (1508047274, "latency"): (
        "DVA daxpy, one port, AVDQ of 4: port busy time and traffic are equal at "
        "every latency, but latency reorders loads and store drains on the port"
    ),
    (1508047292, "latency"): (
        "DVA stream_triad, one port, VADQ of 2: port busy time and traffic are "
        "equal at every latency, but latency reorders loads and store drains"
    ),
}


@pytest.fixture(scope="module")
def snapshot():
    with SNAPSHOT_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def cases():
    return [generate_case(case_seed(DEFAULT_SEED, index)) for index in range(SNAPSHOT_CASES)]


def _report(failures):
    return "\n".join(
        f"  case {index}: {message}\n    repro: {repro_command(DEFAULT_SEED, index)}"
        for index, message in failures
    )


def test_snapshot_covers_the_first_cases_of_the_default_seed(snapshot, cases):
    assert snapshot["spec"] == {"seed": DEFAULT_SEED, "cases": SNAPSHOT_CASES}
    assert set(snapshot["cells"]) == {str(case.seed) for case in cases}
    assert len(snapshot["cells"]) >= 200


@pytest.mark.parametrize("index", range(SNAPSHOT_CASES), ids="case{:03d}".format)
def test_case_passes_invariants_and_snapshot(snapshot, cases, index):
    case = cases[index]
    message = run_case(case, snapshot["cells"][str(case.seed)])
    assert message is None, "fuzz oracle failure:\n" + _report([(index, message)])


def test_invariants_flag_an_avdq_residency_past_total_cycles(cases):
    case = next(case for case in cases if case.family == "dva")
    trace = case.build_trace()
    result, _ = case.simulate(trace)
    assert check_invariants(case, result, len(trace)) is None
    result.avdq_occupancy.record(0, result.total_cycles + 1)
    message = check_invariants(case, result, len(trace))
    assert message.startswith("AVDQ residency ends at")


def test_invariants_flag_a_port_interval_past_total_cycles(cases):
    # The results read the port's busy time off the [0, total_cycles) state
    # breakdown, which sees every port interval only if each one ends by then.
    case = cases[0]
    trace = case.build_trace()
    result, _ = case.simulate(trace)
    result.port_busy.record(0, result.total_cycles + 1)
    message = check_invariants(case, result, len(trace))
    assert message.startswith("port busy until")


def _violations(case):
    """The metamorphic relations ``case`` violates, with the cycles seen."""
    trace = case.build_trace()

    def cycles(latency=case.latency, **pins):
        variant = replace(case, latency=latency, spec=case.spec.with_pins(**pins))
        result, error = variant.simulate(trace)
        return None if error is not None else result.total_cycles

    found = {}
    by_latency = [cycles(latency) for latency in LATENCIES]
    if None not in by_latency and by_latency != sorted(by_latency):
        found["latency"] = dict(zip(LATENCIES, by_latency))
    base = cycles()
    if base is None:
        return found
    for relation, wider in (
        ("lanes", cycles(lanes=case.spec.lanes + 1)),
        ("ports", cycles(ports=case.spec.memory_ports + 1)),
    ):
        if wider is not None and wider > base:
            found[relation] = {"base": base, relation: wider}
    if case.family == "dva":
        on, off = cycles(bypass=True), cycles(bypass=False)
        if None not in (on, off) and on > off:
            found["bypass"] = {"on": on, "off": off}
    return found


def test_metamorphic_relations_hold_outside_the_exception_list(cases):
    unexpected, seen = [], set()
    for index, case in enumerate(cases):
        for relation, observed in _violations(case).items():
            seen.add((case.seed, relation))
            if (case.seed, relation) not in EXCEPTIONS:
                unexpected.append(
                    (index, f"{relation} relation violated: {observed} ({case.describe()})")
                )
    stale = sorted(set(EXCEPTIONS) - seen)
    assert not unexpected, "unlisted metamorphic violations:\n" + _report(unexpected)
    assert not stale, f"listed exceptions that no longer reproduce: {stale}"


@pytest.mark.parametrize(
    "seed, expected",
    [
        (1508047274, {1: 702, 100: 673}),
        (1508047292, {1: 453, 7: 435}),
    ],
)
def test_latency_anomalies_are_pinned_at_their_current_numbers(seed, expected):
    case = generate_case(seed)
    trace = case.build_trace()
    for latency, cycles in expected.items():
        result, error = replace(case, latency=latency).simulate(trace)
        assert error is None
        assert result.total_cycles == cycles
