"""Unit tests for the unified RunResult and the families' result payloads."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder
from repro.core import RunResult, simulate
from repro.dva.result import DecoupledResult
from repro.dva.simulator import simulate_decoupled
from repro.refarch.result import ReferenceResult
from repro.refarch.simulator import simulate_reference
from repro.workloads.perfect_club import build_trace

#: The keys every family's payload starts with, in order.
SHARED_KEYS = [
    "program",
    "latency",
    "total_cycles",
    "instructions",
    "memory_traffic_bytes",
    "scalar_cache_hits",
    "scalar_cache_misses",
    "all_idle_cycles",
    "port_idle_fraction",
]

#: Each family's whole payload layout.  Stored cells hold these payloads,
#: so a reordered, renamed or dropped key changes what the store serves.
REF_KEYS = SHARED_KEYS + [
    "scalar_cache_hit_rate",
    "vector_instructions",
    "scalar_instructions",
    "dispatch_stall_cycles",
    "category_cycles",
]
DVA_KEYS = SHARED_KEYS + [
    "bypass",
    "bypassed_loads",
    "max_avdq_occupancy",
    "fetch_stall_cycles",
    "bypassed_bytes",
    "disambiguation_stalls",
    "instructions_per_processor",
    "mean_avdq_occupancy",
    "avdq_histogram",
]


@pytest.fixture(scope="module")
def trace():
    return build_trace("TRFD", scale=0.2)


class TestPayloadLayout:
    def test_reference_payload_keys_in_order(self, trace):
        assert list(simulate_reference(trace, latency=10).to_json()) == REF_KEYS

    def test_decoupled_payload_keys_in_order(self, trace):
        assert list(simulate_decoupled(trace, latency=10).to_json()) == DVA_KEYS

    @pytest.mark.parametrize(
        "arch, keys", [("ref", REF_KEYS), ("dva", DVA_KEYS), ("dva-nobypass", DVA_KEYS)]
    )
    def test_run_result_detail_keys_in_order(self, trace, arch, keys):
        result = simulate(trace, arch, latency=50)
        assert list(result.detail) == keys
        rebuilt = RunResult.from_json(json.loads(json.dumps(result.to_json())))
        assert list(rebuilt.detail) == keys

    def test_shared_keys_agree_between_wrappers_and_results(self, trace):
        for arch, direct in (
            ("ref", simulate_reference(trace, latency=10)),
            ("dva", simulate_decoupled(trace, latency=10)),
        ):
            unified = simulate(trace, arch, latency=10)
            for key in SHARED_KEYS:
                assert unified.detail[key] == direct.to_json()[key]

    def test_result_to_json_round_trips_through_json(self, trace):
        for payload in (
            simulate_reference(trace, latency=10).to_json(),
            simulate_decoupled(trace, latency=10).to_json(),
        ):
            assert json.loads(json.dumps(payload)) == payload


class TestRunResult:
    def test_json_round_trip(self, trace):
        for arch in ("ref", "dva"):
            result = simulate(trace, arch, latency=50)
            rebuilt = RunResult.from_json(json.loads(json.dumps(result.to_json())))
            assert rebuilt == result

    def test_summary_carries_architecture(self, trace):
        summary = simulate(trace, "dva", latency=1).summary()
        assert summary["architecture"] == "dva"
        assert summary["program"] == "TRFD"

    def test_speedup_over(self, trace):
        ref = simulate(trace, "ref", latency=100)
        dva = simulate(trace, "dva", latency=100)
        assert dva.speedup_over(ref) == pytest.approx(
            ref.total_cycles / dva.total_cycles
        )

    def test_speedup_rejects_mismatched_cells(self, trace):
        fast = simulate(trace, "ref", latency=1)
        slow = simulate(trace, "dva", latency=100)
        with pytest.raises(SimulationError, match="same cell"):
            slow.speedup_over(fast)


def _decoupled_result(pairs, total_cycles):
    """A decoupled result that carries nothing but AVDQ residencies."""
    avdq = IntervalRecorder("AVDQ")
    for enter, length in pairs:
        avdq.record(enter, enter + length)
    return DecoupledResult(
        program="p",
        latency=1,
        total_cycles=total_cycles,
        instructions=0,
        bypass_enabled=False,
        fu1_busy=IntervalRecorder("FU1"),
        fu2_busy=IntervalRecorder("FU2"),
        port_busy=IntervalRecorder("LD"),
        avdq_occupancy=avdq,
    )


class TestAvdqNumbers:
    @given(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 20)), max_size=12),
        st.integers(0, 80),
    )
    def test_avdq_numbers_equal_a_per_cycle_count(self, pairs, total_cycles):
        levels = [
            sum(enter <= cycle < enter + length for enter, length in pairs)
            for cycle in range(total_cycles)
        ]
        expected = {}
        for level in levels:
            expected[level] = expected.get(level, 0) + 1
        result = _decoupled_result(pairs, total_cycles)
        assert result.avdq_histogram() == expected
        assert result.avdq_histogram() is result.avdq_histogram()
        payload = result.to_json()
        assert payload["max_avdq_occupancy"] == max(levels, default=0)
        mean = sum(levels) / total_cycles if total_cycles else 0.0
        assert payload["mean_avdq_occupancy"] == round(mean, 4)
        assert payload["avdq_histogram"] == sorted(map(list, expected.items()))

    def test_a_run_without_cycles_reads_zero_occupancy(self):
        result = _decoupled_result([(0, 5)], total_cycles=0)
        assert result.avdq_histogram() == {}
        payload = result.to_json()
        assert payload["max_avdq_occupancy"] == 0
        assert payload["mean_avdq_occupancy"] == 0.0
        assert payload["avdq_histogram"] == []

    def test_histogram_pairs_are_sorted_by_level(self):
        # The sweep holds levels 1, 3, 2, 0 in that order; the payload sorts.
        result = _decoupled_result([(0, 10), (5, 10), (5, 3)], total_cycles=20)
        assert list(result.avdq_histogram()) == [1, 3, 2, 0]
        payload = result.to_json()
        assert payload["avdq_histogram"] == [[0, 5], [1, 10], [2, 2], [3, 3]]
        assert payload["max_avdq_occupancy"] == 3
        assert payload["mean_avdq_occupancy"] == round((10 + 2 * 2 + 3 * 3) / 20, 4)


class TestStateBreakdown:
    def test_idle_and_port_cycles_read_the_breakdown(self):
        fu2 = IntervalRecorder("FU2")
        fu1 = IntervalRecorder("FU1")
        port = IntervalRecorder("LD")
        fu2.record(0, 10)
        fu1.record(5, 15)
        port.record(0, 20)
        result = ReferenceResult(
            program="p",
            latency=1,
            total_cycles=25,
            instructions=0,
            vector_instructions=0,
            fu1_busy=fu1,
            fu2_busy=fu2,
            port_busy=port,
        )
        assert result.state_breakdown() == {
            (True, False, True): 5,
            (True, True, True): 5,
            (False, True, True): 5,
            (False, False, True): 5,
            (False, False, False): 5,
        }
        assert result.state_breakdown() is result.state_breakdown()
        assert result.all_idle_cycles == 5
        assert result.port_busy_cycles == 20


class TestPortIdleFraction:
    def test_idle_fraction_is_idle_cycles_over_total(self):
        # 1/160 = 0.00625 is a rounding tie: (total - busy) / total lands
        # just above it (0.0063), the DVA's former 1 - busy / total just
        # below it (0.0062).  Both families report the former.
        port = IntervalRecorder("LD")
        port.record(0, 159)
        shared = dict(
            program="p",
            latency=1,
            total_cycles=160,
            instructions=0,
            fu1_busy=IntervalRecorder("FU1"),
            fu2_busy=IntervalRecorder("FU2"),
            port_busy=port,
        )
        for result in (
            ReferenceResult(**shared, vector_instructions=0),
            DecoupledResult(
                **shared, bypass_enabled=False, avdq_occupancy=IntervalRecorder("AVDQ")
            ),
        ):
            assert result.port_idle_fraction == 1 / 160
            assert result.to_json()["port_idle_fraction"] == 0.0063
