"""Unit tests for the declarative MachineSpec API."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core import (
    MachineSpec,
    RunConfig,
    Runner,
    SweepSpec,
    architecture,
    machine_spec,
)
from repro.core.machine import (
    FAMILIES,
    FIELDS,
    canonical_axis_name,
    lookup_field,
    parse_axis_values,
)
from repro.dva import simulate_decoupled
from repro.dva.simulator import DecoupledSimulator
from repro.isa.builder import InstructionBuilder
from repro.isa.opcodes import Opcode
from repro.isa.registers import s_reg
from repro.refarch import simulate_reference
from repro.trace.generator import TraceBuilder
from repro.workloads.perfect_club import build_trace, program_names


class TestStringRoundTrip:
    def test_issue_example_parses(self):
        spec = machine_spec("dva@lanes=2,ports=2,bypass=off")
        assert spec.family == "dva"
        assert spec.lanes == 2
        assert spec.memory_ports == 2
        assert spec.bypass is False

    def test_to_string_is_canonical(self):
        spec = machine_spec("dva@bypass=off,ports=2,lanes=2")
        assert spec.to_string() == "dva@lanes=2,ports=2,bypass=off"

    @pytest.mark.parametrize(
        "text",
        [
            "ref",
            "dva",
            "dva@bypass=off",
            "ref@lanes=2",
            "dva@ports=2",
            "dva@lanes=4,ports=2,avdq=4,vadq=4",
            "ref@chaining=on,cache_line=64,cache_lines=256",
        ],
    )
    def test_machine_spec_to_string_identity(self, text):
        spec = machine_spec(text)
        assert machine_spec(spec.to_string()) == spec

    def test_preset_base_with_overrides(self):
        assert (
            machine_spec("dva-nobypass@lanes=2")
            == machine_spec("dva@lanes=2,bypass=off")
        )

    def test_family_names_are_builtins(self):
        assert machine_spec("ref") == MachineSpec(family="ref")
        assert machine_spec("dva-nobypass") == MachineSpec(family="dva", bypass=False)

    def test_aliases_accepted(self):
        spec = machine_spec("dva@memory_ports=2,vector_load_data=8")
        assert spec.memory_ports == 2
        assert spec.vector_load_data == 8

    @pytest.mark.parametrize("key", ["lines", "line_bytes", "load_chaining"])
    def test_retired_aliases_are_unknown_fields(self, key):
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            machine_spec(f"ref@{key}=1")

    def test_bool_words(self):
        for word, expected in [("on", True), ("true", True), ("yes", True),
                               ("1", True), ("off", False), ("false", False),
                               ("no", False), ("0", False)]:
            assert machine_spec(f"dva@bypass={word}").bypass is expected


class TestStringErrors:
    def test_unknown_base(self):
        with pytest.raises(ConfigurationError, match="unknown architecture 'vliw'"):
            machine_spec("vliw@lanes=2")

    def test_missing_base(self):
        with pytest.raises(ConfigurationError, match="no base machine"):
            machine_spec("@lanes=2")

    @pytest.mark.parametrize("text", ["dva@warp=9", "dva@core=event", "dva@sdq=2"])
    def test_unknown_field(self, text):
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            machine_spec(text)

    def test_malformed_assignment(self):
        with pytest.raises(ConfigurationError, match="malformed assignment"):
            machine_spec("dva@lanes")

    def test_empty_assignments(self):
        with pytest.raises(ConfigurationError, match="no assignments"):
            machine_spec("dva@")

    def test_duplicate_assignment(self):
        with pytest.raises(ConfigurationError, match="assigned twice"):
            machine_spec("dva@lanes=2,lanes=4")

    def test_non_integer_value(self):
        with pytest.raises(ConfigurationError, match="takes an integer"):
            machine_spec("dva@lanes=wide")

    def test_non_bool_value(self):
        with pytest.raises(ConfigurationError, match="takes on/off"):
            machine_spec("dva@bypass=maybe")

    def test_out_of_range_value(self):
        with pytest.raises(ConfigurationError, match="must be in 1..64"):
            machine_spec("dva@lanes=0")

    @pytest.mark.parametrize(
        "info",
        [info for info in FIELDS if info.kind == "int"],
        ids=lambda info: info.attribute,
    )
    @pytest.mark.parametrize("size", [0, -4])
    def test_non_positive_sizes_are_refused(self, info, size):
        with pytest.raises(ConfigurationError, match=f"must be in {info.lo}[.][.]"):
            MachineSpec(family="dva", **{info.attribute: size})

    def test_power_of_two_enforced(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            machine_spec("ref@cache_line=48")

    def test_field_wrong_family(self):
        with pytest.raises(ConfigurationError, match="not valid for family"):
            machine_spec("ref@bypass=off")
        with pytest.raises(ConfigurationError, match="not valid for family"):
            machine_spec("dva@chaining=on")

    def test_unknown_family_constructor(self):
        with pytest.raises(ConfigurationError, match="unknown machine family"):
            MachineSpec(family="vliw")


class TestDefaults:
    @pytest.mark.parametrize("family", ["ref", "dva"])
    def test_bare_family_is_its_preset(self, family):
        assert MachineSpec(family=family) == machine_spec(family)
        assert MachineSpec(family=family).to_string() == family

    def test_inapplicable_fields_stay_unset(self):
        assert MachineSpec(family="ref").bypass is None
        assert MachineSpec(family="dva").chaining is None

    def test_dva_defaults_are_the_papers_section_5_machine(self):
        spec = MachineSpec(family="dva")
        assert (spec.instruction_queue, spec.vector_load_data) == (16, 256)
        assert (spec.vector_store_data, spec.scalar_store_address) == (16, 16)
        assert (spec.lanes, spec.memory_ports, spec.bypass) == (1, 1, True)

    def test_overrides_are_exactly_the_non_default_fields(self):
        spec = MachineSpec(family="dva", lanes=1, bypass=False, vector_load_data=4)
        assert spec.overrides() == {"bypass": False, "vector_load_data": 4}
        assert spec.to_json() == {"family": "dva", "bypass": False, "vector_load_data": 4}
        assert spec.to_string() == "dva@bypass=off,avdq=4"


def _scalar_walk():
    """Scalar loads walking two regions, their sum stored to a third.

    Program traces touch too few scalar addresses for the cache geometry to
    matter; this trace hits or misses depending on it.
    """
    emit = InstructionBuilder()
    block = emit.instructions
    emit.scalar_load(s_reg(1), "a")
    emit.scalar_load(s_reg(3), "c")
    emit.scalar_op(Opcode.S_ADD, s_reg(2), [s_reg(1), s_reg(3)])
    emit.scalar_store(s_reg(2), "b")
    builder = TraceBuilder("scalar-walk")
    for index in range(16):
        builder.append_block(
            block, region_offsets={"a": 4 * index, "c": 64 + index, "b": 128 + index}
        )
    return builder.build()


@pytest.fixture(scope="module")
def probe_traces():
    return {"bdna": build_trace("BDNA", scale=0.1), "scalar": _scalar_walk()}


class TestSimulatorsReadTheSpec:
    """The spec is the simulators' only machine description: every field the
    family has reaches its simulator, so a non-default value changes the run."""

    @pytest.mark.parametrize(
        "text, trace",
        [
            ("ref@lanes=4", "bdna"),
            ("ref@ports=2", "bdna"),
            ("ref@chaining=on", "bdna"),
            ("ref@cache_line=4", "scalar"),
            ("ref@cache_lines=1", "scalar"),
            ("dva@lanes=4", "bdna"),
            ("dva@ports=2", "bdna"),
            ("dva@bypass=off", "bdna"),
            ("dva@iq=1", "bdna"),
            ("dva@avdq=1", "bdna"),
            ("dva@vadq=1", "bdna"),
            ("dva@ssaq=1", "bdna"),
            ("dva@cache_line=4", "scalar"),
            ("dva@cache_lines=1", "scalar"),
        ],
    )
    def test_each_field_changes_the_cycles(self, probe_traces, text, trace):
        family = text.partition("@")[0]
        pinned = architecture(text).simulate(probe_traces[trace], RunConfig(latency=50))
        default = architecture(family).simulate(probe_traces[trace], RunConfig(latency=50))
        assert pinned.total_cycles != default.total_cycles

    def test_queue_depths_size_the_decoupled_queues(self):
        spec = machine_spec("dva@iq=3,avdq=5,vadq=6,ssaq=7")
        state = DecoupledSimulator(spec, 50)
        pipeline = state.memory
        # The VSAQ follows ``vadq``: the paper's "store queue length" is one
        # parameter, and a vector store's data takes its address's slot.
        assert (pipeline.vector_pops.maxlen, pipeline.scalar_pops.maxlen) == (6, 7)
        # The queues a trace step pushes and pops are the loop's rings.
        rings = {
            name: getattr(state, name).maxlen
            for name in ("apiq", "vpiq", "spiq", "avdq")
        }
        assert rings == {"apiq": 3, "vpiq": 3, "spiq": 3, "avdq": 5}
        assert (pipeline.fabric.cache.line_bytes, pipeline.fabric.cache.lines) == (32, 1024)


_PROBE_LATENCIES = (1, 100)
_SIMULATE = {"ref": simulate_reference, "dva": simulate_decoupled}


def _probe_cycles(traces, spec):
    simulate = _SIMULATE[spec.family]
    return [
        simulate(trace, latency, spec).total_cycles
        for trace in traces
        for latency in _PROBE_LATENCIES
    ]


@pytest.fixture(scope="module")
def paper_probe():
    """The six paper programs and each family's default cycles on them."""
    traces = [build_trace(name) for name in program_names()]
    defaults = {family: _probe_cycles(traces, MachineSpec(family=family)) for family in FAMILIES}
    return traces, defaults


def _range_ends(info):
    """The field's range ends other than its default; a bool's flip."""
    if info.kind == "bool":
        return [not info.default]
    return [value for value in (info.lo, info.hi) if value != info.default]


class TestEveryFieldMovesAPaperCell:
    """Each field, on each family it applies to, moves the total cycles of a
    paper program at latency 1 or 100 at one of its range ends.  The cases
    come from :data:`FIELDS`, so a new field is probed too."""

    @pytest.mark.parametrize(
        "info, family",
        [(info, family) for info in FIELDS for family in info.families],
        ids=lambda value: value if isinstance(value, str) else value.key,
    )
    def test_field_moves_a_cycle(self, paper_probe, info, family):
        traces, defaults = paper_probe
        moved = {
            value: sum(
                pinned != default
                for pinned, default in zip(
                    _probe_cycles(traces, MachineSpec(family=family, **{info.attribute: value})),
                    defaults[family],
                )
            )
            for value in _range_ends(info)
        }
        assert any(moved.values()), f"{info.key} on {family} moves no paper cell"


class TestFieldSchema:
    def test_every_field_has_range_text(self):
        for info in FIELDS:
            assert info.range_text
            assert info.description

    def test_lookup_by_key_attribute_and_alias(self):
        assert lookup_field("ports") is lookup_field("memory_ports")
        assert lookup_field("avdq") is lookup_field("vector_load_data")
        assert lookup_field("LANES").attribute == "lanes"

    def test_axis_name_canonicalization(self):
        assert canonical_axis_name("latency") == "latency"
        assert canonical_axis_name("memory_ports") == "ports"
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            canonical_axis_name("family")

    def test_axis_values_parse_and_validate(self):
        assert parse_axis_values("lanes", ("1", "2")) == (1, 2)
        assert parse_axis_values("bypass", ("on", "off")) == (True, False)
        with pytest.raises(ConfigurationError, match="repeats a value"):
            parse_axis_values("lanes", (1, 1))
        with pytest.raises(ConfigurationError, match="at least one value"):
            parse_axis_values("lanes", ())
        with pytest.raises(ConfigurationError, match="negative"):
            parse_axis_values("latency", (-1,))

    def test_latency_axis_values_are_strict(self):
        assert parse_axis_values("latency", ("50", 100.0, 7)) == (50, 100, 7)
        for value in (True, 1.5, float("nan"), float("inf"), "1e3", "x", None, (1,)):
            with pytest.raises(ConfigurationError, match="non-negative integers"):
                parse_axis_values("latency", (value,))
        with pytest.raises(ConfigurationError, match="sweep latencies repeat a value"):
            parse_axis_values("latency", ("1", 1))

    @pytest.mark.parametrize(
        "name, value", [("lanes", True), ("lanes", 1.0), ("lanes", [1]), ("bypass", 1)]
    )
    def test_machine_axis_values_must_have_the_fields_type(self, name, value):
        with pytest.raises(ConfigurationError, match="takes"):
            parse_axis_values(name, (value,))


class TestRegistryResolution:
    def test_inline_spec_resolves_without_registration(self):
        simulator = architecture("dva@lanes=2")
        assert simulator.name == "dva@lanes=2"
        assert simulator.spec.lanes == 2

    def test_inline_spec_errors_propagate(self):
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            architecture("dva@warp=9")

    def test_inline_spec_over_a_preset_base(self):
        """An @-clause composes with any preset, and the label is the spec's."""
        extended = architecture("dva-nobypass@avdq=4,lanes=2")
        assert extended.spec.vector_load_data == 4
        assert extended.spec.lanes == 2
        assert extended.spec.bypass is False
        assert extended.name == "dva@lanes=2,bypass=off,avdq=4"

    def test_unknown_name_still_lists_known(self):
        with pytest.raises(ConfigurationError, match="unknown architecture"):
            architecture("vliw")


class TestWorkerPickling:
    def test_inline_specs_run_in_pool_workers(self, two_cpus):
        """Inline machine specs must pickle into multiprocessing workers."""
        spec = SweepSpec(
            programs=("trfd",),
            latencies=(1, 50),
            architectures=("ref", "dva@lanes=2,ports=2,bypass=off"),
            scale=0.2,
        )
        serial = Runner(jobs=1).run(spec)
        with Runner(jobs=2) as runner:
            parallel = runner.run(spec)
        assert serial.results == parallel.results
        labels = {r.architecture for r in parallel}
        assert "dva@lanes=2,ports=2,bypass=off" in labels

    def test_spec_provenance_travels_with_results(self):
        spec = SweepSpec(
            programs=("trfd",),
            latencies=(1,),
            architectures=("dva@lanes=2",),
            scale=0.2,
        )
        result = Runner(jobs=1).run(spec).results[0]
        assert result.spec == {"family": "dva", "lanes": 2}
