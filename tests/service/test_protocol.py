"""The JSON wire protocol: request parsing and payload rendering."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.core.experiment import CellProgress, SweepResult, SweepSpec
from repro.service.protocol import parse_run_request, result_payload
from repro.service.server import SweepJob


class TestParseRunRequest:
    def test_minimal_request_gets_defaults(self):
        spec = parse_run_request({"program": "trfd"})
        assert spec == SweepSpec(programs=("trfd",), latencies=(1,), architectures=("dva",))
        assert spec.programs == ("TRFD",)
        assert spec.architectures == ("dva",)
        assert spec.latencies == (1,)
        assert spec.scale == 1.0

    def test_full_request(self):
        spec = parse_run_request(
            {"program": "DYFESM", "arch": "dva@lanes=2", "latency": 50, "scale": 0.5}
        )
        assert spec.programs == ("DYFESM",)
        assert spec.architectures == ("dva@lanes=2",)
        assert spec.latencies == (50,)
        assert spec.scale == 0.5
        assert len(spec) == 1

    def test_architecture_is_an_accepted_alias_for_arch(self):
        spec = parse_run_request({"program": "trfd", "architecture": "ref"})
        assert spec.architectures == ("ref",)

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            "not an object",
            {},
            {"program": ""},
            {"program": 7},
            {"program": "trfd", "latency": "fifty"},
            {"program": "trfd", "latency": 1.5},
            {"program": "trfd", "latency": True},
            {"program": "trfd", "latency": -1},
            {"program": "trfd", "latency": [1, 50]},
            {"program": "trfd", "scale": "big"},
            {"program": "trfd", "arch": ""},
            {"program": "trfd", "arch": "ref", "architecture": "dva"},
            {"program": "trfd", "unknown_field": 1},
            # Python's json module accepts the non-standard literals NaN and
            # Infinity, so the protocol itself must refuse them as a scale.
            json.loads('{"program": "trfd", "scale": NaN}'),
            json.loads('{"program": "trfd", "scale": Infinity}'),
            json.loads('{"program": "trfd", "scale": -Infinity}'),
            # ... and as a latency, where int() would raise ValueError or
            # OverflowError instead.
            json.loads('{"program": "trfd", "latency": NaN}'),
            json.loads('{"program": "trfd", "latency": Infinity}'),
            json.loads('{"program": "trfd", "latency": -Infinity}'),
        ],
    )
    def test_malformed_requests_raise_configuration_errors(self, payload):
        with pytest.raises(ConfigurationError):
            parse_run_request(payload)


class TestSweepRequest:
    """A ``/v1/sweeps`` body is read by ``SweepSpec.from_json`` itself."""

    def test_lists_parse_into_a_spec(self):
        spec = SweepSpec.from_json(
            {
                "programs": ["dyfesm", "trfd"],
                "latencies": [1, 50],
                "architectures": ["ref", "dva"],
            }
        )
        assert spec == SweepSpec(
            programs=("dyfesm", "trfd"), latencies=(1, 50), architectures=("ref", "dva")
        )

    def test_comma_separated_strings_parse_like_the_cli(self):
        spec = SweepSpec.from_json(
            {"programs": "dyfesm,trfd", "latencies": "1,50", "architectures": "ref,dva"}
        )
        assert spec.programs == ("DYFESM", "TRFD")
        assert spec.latencies == (1, 50)

    @pytest.mark.parametrize("text", ["ref,dva@lanes=2,ports=2", "dva@bypass=off,ref@lanes=2"])
    def test_inline_spec_clauses_keep_their_commas_like_the_cli(self, text):
        spec = SweepSpec.from_json({"programs": "trfd", "latencies": "1", "architectures": text})
        assert spec == SweepSpec(programs="trfd", latencies="1", architectures=text)
        assert len(spec.architectures) == 2

    def test_digit_strings_and_comma_axis_values_read_like_the_cli(self):
        spec = SweepSpec.from_json(
            {"programs": ["trfd"], "latencies": ["1", 50], "axes": {"lanes": "1,2"}}
        )
        assert spec.latencies == (1, 50)
        assert spec.axes == (("lanes", (1, 2)),)
        assert parse_run_request({"program": "trfd", "latency": "50"}).latencies == (50,)

    def test_axes_as_mapping(self):
        spec = SweepSpec.from_json(
            {"programs": ["trfd"], "latencies": [1], "axes": {"lanes": [1, 2]}}
        )
        assert spec.axes == (("lanes", (1, 2)),)

    def test_axes_as_pair_list_round_trips_with_payload(self):
        spec = SweepSpec.from_json(
            {"programs": ["trfd"], "latencies": [1], "axes": [["lanes", [1, 2]]]}
        )
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_spec_payload_matches_sweep_result_spec_block(self):
        spec = SweepSpec(programs=("trfd",), latencies=(1, 50), axes={"lanes": (1, 2)})
        payload = spec.to_json()
        assert SweepResult(spec=spec, results=[]).to_json()["spec"] == payload
        assert payload["programs"] == ["TRFD"]
        assert payload["axes"] == [["lanes", [1, 2]]]
        assert SweepSpec.from_json(payload) == spec

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"programs": []},
            {"programs": ["trfd"]},  # no latencies at all
            {"programs": ["trfd"], "latencies": "one,two"},
            {"programs": ["trfd"], "latencies": [1], "axes": "lanes=1,2"},
            {"programs": ["trfd"], "latencies": [1], "axes": [["lanes"]]},
            {"programs": ["trfd"], "latencies": [1], "axes": {"": [1]}},
            {"programs": ["trfd"], "latencies": [1], "bogus": True},
            {"programs": ["trfd"], "latencies": [1], "scale": -1.0},
            {"programs": ["trfd"], "latencies": [1, 1.5]},
            {"programs": ["trfd", "TRFD"], "latencies": [1]},
            {"programs": ["trfd"], "latencies": "1,1"},
            json.loads('{"programs": ["trfd"], "latencies": [1], "scale": NaN}'),
            json.loads('{"programs": ["trfd"], "latencies": [1], "scale": Infinity}'),
            json.loads('{"programs": ["trfd"], "latencies": [1, NaN]}'),
            json.loads('{"programs": ["trfd"], "latencies": [Infinity]}'),
            json.loads('{"programs": ["trfd"], "latencies": [-Infinity]}'),
            {"programs": ["trfd"], "latencies": [1], "axes": {"lanes": [[1, 2]]}},
            {"programs": ["trfd"], "latencies": [True]},
            {"programs": [7], "latencies": [1]},
            {"programs": ["trfd"], "latencies": [1], "scale": "1"},
            # A latency declared twice, once as an axis: SweepSpec's own check.
            {"programs": ["trfd"], "latencies": [1], "axes": {"latency": [1, 50]}},
        ],
    )
    def test_malformed_sweeps_raise_configuration_errors(self, payload):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_json(payload)


class TestResponsePayloads:
    def test_result_payload_carries_headline_and_detail(self, monkeypatch):
        from repro.core.registry import simulate
        from repro.workloads.perfect_club import build_trace

        result = simulate(build_trace("TRFD"), "dva", latency=1)
        payload = result_payload(result)
        assert payload["program"] == "TRFD"
        assert payload["architecture"] == "dva"
        assert payload["total_cycles"] == result.total_cycles
        assert payload["cached"] is False
        assert payload["summary"]["total_cycles"] == result.total_cycles

    def test_a_recorded_progress_event_carries_the_event_fields(self):
        event = CellProgress(
            done=3, total=8, cached=2, simulated=1, program="TRFD",
            latency=50, architecture="dva", from_store=False,
        )
        job = SweepJob("sw-1", SweepSpec(programs="trfd", latencies="50"))
        job.record(event)
        assert job.events == [{
            "done": 3, "total": 8, "cached": 2, "simulated": 1,
            "program": "TRFD", "latency": 50, "architecture": "dva",
            "from_store": False,
        }]
