"""One grid reader: code, JSON bodies and ``repro sweep`` argv build equal specs.

The :class:`SweepSpec` constructor reads every input; ``from_json`` only
checks a body's shape and the CLI only splits its ``--axis`` entries, so the
same grid spelled three ways must come out as one spec.
"""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.core import cli
from repro.core.experiment import SweepSpec

# (Python keyword arguments, JSON body, `repro sweep` argv, expected to_json())
GRIDS = {
    "plain lists": (
        {"programs": ("dyfesm", "trfd"), "latencies": (1, 50), "architectures": ("ref", "dva")},
        '{"programs": ["dyfesm", "trfd"], "latencies": [1, 50], "architectures": ["ref", "dva"]}',
        ["--programs", "dyfesm,trfd", "--latencies", "1,50", "--arch", "ref,dva"],
        {"programs": ["DYFESM", "TRFD"], "latencies": [1, 50],
         "architectures": ["ref", "dva"], "scale": 1.0, "axes": []},
    ),
    "comma strings": (
        {"programs": "dyfesm, TRFD", "latencies": "1, 50", "architectures": "REF,dva",
         "scale": 0.5},
        '{"programs": "dyfesm, TRFD", "latencies": "1, 50", "architectures": "REF,dva",'
        ' "scale": 0.5}',
        ["--programs", "dyfesm, TRFD", "--latencies", "1, 50", "--arch", "REF,dva",
         "--scale", "0.5"],
        {"programs": ["DYFESM", "TRFD"], "latencies": [1, 50],
         "architectures": ["ref", "dva"], "scale": 0.5, "axes": []},
    ),
    "inline-spec architectures": (
        {"programs": ("trfd",), "latencies": (1,),
         "architectures": "ref,dva@lanes=2,ports=2,dva@bypass=off"},
        '{"programs": ["trfd"], "latencies": [1],'
        ' "architectures": "ref,dva@lanes=2,ports=2,dva@bypass=off"}',
        ["--programs", "trfd", "--latencies", "1", "--arch",
         "ref,dva@lanes=2,ports=2,dva@bypass=off"],
        {"programs": ["TRFD"], "latencies": [1],
         "architectures": ["ref", "dva@lanes=2,ports=2", "dva@bypass=off"],
         "scale": 1.0, "axes": []},
    ),
    "latency axis": (
        {"programs": ("trfd",), "architectures": ("dva",), "axes": {"latency": (1, 100)}},
        '{"programs": ["trfd"], "architectures": ["dva"], "axes": {"latency": [1, 100]}}',
        ["--programs", "trfd", "--arch", "dva", "--axis", "latency=1,100"],
        {"programs": ["TRFD"], "latencies": [1, 100], "architectures": ["dva"],
         "scale": 1.0, "axes": []},
    ),
    "comma-string axis values": (
        {"programs": ("trfd",), "latencies": (1,), "architectures": ("dva",),
         "axes": {"lanes": "1,2", "bypass": "on,off"}},
        '{"programs": ["trfd"], "latencies": [1], "architectures": ["dva"],'
        ' "axes": [["lanes", "1,2"], ["bypass", "on,off"]]}',
        ["--programs", "trfd", "--latencies", "1", "--arch", "dva",
         "--axis", "lanes=1,2", "--axis", "bypass=on,off"],
        {"programs": ["TRFD"], "latencies": [1], "architectures": ["dva"],
         "scale": 1.0, "axes": [["lanes", [1, 2]], ["bypass", [True, False]]]},
    ),
}


class _SpecBuilt(Exception):
    """Stops a CLI sweep as soon as its spec reaches the runner."""


def cli_spec(monkeypatch, argv):
    """The spec ``repro sweep argv`` builds, through the real parser and handler."""

    class CapturingRunner:
        def __init__(self, jobs, store):
            pass

        def run(self, spec, progress=None):
            raise _SpecBuilt(spec)

    monkeypatch.setattr(cli, "Runner", CapturingRunner)
    with pytest.raises(_SpecBuilt) as excinfo:
        cli.main(["sweep", *argv, "--no-store"])
    return excinfo.value.args[0]


@pytest.mark.parametrize("grid", list(GRIDS))
def test_code_json_and_argv_read_one_grid(monkeypatch, grid):
    kwargs, body, argv, expected = GRIDS[grid]
    from_code = SweepSpec(**kwargs)
    from_json = SweepSpec.from_json(json.loads(body))
    from_argv = cli_spec(monkeypatch, argv)
    assert from_code == from_json == from_argv
    assert from_code.to_json() == expected


class TestOneRuleSet:
    def test_a_bare_string_is_one_entry_not_its_characters(self):
        spec = SweepSpec(programs="trfd", latencies=(1,), architectures="dva")
        assert spec.programs == ("TRFD",)
        assert spec.architectures == ("dva",)

    @pytest.mark.parametrize(
        "latencies", [(1.5,), (True,), (False,), "1,x", (float("nan"),), (float("inf"),),
                      ("1e3",), ("50.0",), ("-1",), (-1,), ([1, 50],), 50]
    )
    def test_malformed_latencies_are_configuration_errors(self, latencies):
        with pytest.raises(ConfigurationError):
            SweepSpec(programs=("trfd",), latencies=latencies)

    def test_digit_strings_and_integral_floats_are_latencies(self):
        spec = SweepSpec(programs=("trfd",), latencies=("50", 100.0, 7))
        assert spec.latencies == (50, 100, 7)
        assert all(type(latency) is int for latency in spec.latencies)

    @pytest.mark.parametrize("scale", ["1", True, None, [1.0]])
    def test_a_non_number_scale_is_a_configuration_error(self, scale):
        with pytest.raises(ConfigurationError, match="scale"):
            SweepSpec(programs=("trfd",), latencies=(1,), scale=scale)

    def test_an_integer_scale_reads_as_a_float(self):
        spec = SweepSpec(programs=("trfd",), latencies=(1,), scale=1)
        assert type(spec.scale) is float
        assert spec.to_json() == SweepSpec(programs=("trfd",), latencies=(1,)).to_json()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"programs": (7,)},
            {"programs": ("",)},
            {"architectures": (" ",)},
            {"architectures": ("ref", None)},
            {"programs": {"trfd": 1}},
            {"axes": "lanes=1,2"},
            {"axes": (("lanes",),)},
            {"axes": {7: (1, 2)}},
            {"axes": {"lanes": ((1, 2),)}},
            {"axes": {"lanes": (True,)}},
            {"axes": {"bypass": (1,)}},
        ],
    )
    def test_malformed_fields_are_configuration_errors(self, kwargs):
        with pytest.raises(ConfigurationError):
            SweepSpec(**{"programs": ("trfd",), "latencies": (1,), **kwargs})

    def test_names_are_stripped(self):
        spec = SweepSpec(programs=(" trfd ",), latencies=(1,), architectures=(" DVA",))
        assert spec.programs == ("TRFD",)
        assert spec.architectures == ("dva",)

    def test_a_scalar_axis_value_is_one_value(self):
        spec = SweepSpec(programs=("trfd",), latencies=(1,), axes={"lanes": 2, "bypass": False})
        assert spec.axes == (("lanes", (2,)), ("bypass", (False,)))

    def test_latency_field_and_axis_share_one_check(self):
        for kwargs in ({"latencies": (1, 1)}, {"axes": {"latency": "1,1"}}):
            with pytest.raises(ConfigurationError, match="sweep latencies repeat a value"):
                SweepSpec(programs=("trfd",), **kwargs)


class TestFromJsonChecksOnlyTheShape:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "JSON object"),
            ({"latencies": [1]}, "needs 'programs'"),
            ({"programs": ["trfd"], "latencies": [1], "bogus": 1}, "unknown field"),
        ],
    )
    def test_shape_errors(self, payload, message):
        with pytest.raises(ConfigurationError, match=message):
            SweepSpec.from_json(payload)

    def test_to_json_reads_back(self):
        spec = SweepSpec(
            programs=("trfd", "dyfesm"), latencies=(1, 50), architectures=("dva",),
            scale=0.25, axes={"lanes": (1, 2), "bypass": (True, False)},
        )
        assert SweepSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec
