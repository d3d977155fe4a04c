"""Declarative machine descriptions: architectures as data, not code.

The paper's results are ablations over machine parameters — memory latency,
store→load bypass on/off, datapath width — and every one of those knobs is a
*value*, so the machine itself should be one too.  A :class:`MachineSpec` is
exactly that: a validated, frozen description of one whole machine — the
simulator family (``ref`` or ``dva``), lanes, memory ports, the bypass and
chaining switches, the decoupled queue depths and the scalar-cache geometry —
that the registry (:mod:`repro.core.registry`) names and resolves into a
runnable machine.  Every field the family has gets a value: one left out
takes its :data:`FIELDS` default, so ``MachineSpec(family="dva")`` is the
``dva`` built-in.  The simulators read their machine straight off the spec;
what no field covers is a fixed value of the paper's machine, a named
constant in the module that uses it.

Spec strings use the grammar::

    spec        := base [ "@" assignment { "," assignment } ]
    base        := any registered architecture name ("ref", "dva",
                   "dva-nobypass", ...) — the family names are built-ins
    assignment  := key "=" value
    value       := integer | "on" | "off" | "true" | "false" | "yes" | "no"

so ``dva@lanes=2,ports=2,bypass=off`` is a two-lane, two-port decoupled
machine without the bypass.  The registry's
:func:`~repro.core.registry.machine_spec` parses them (the base has to be
looked up there); this module supplies the field schema and the
``key=value`` clause parser.  :meth:`MachineSpec.to_string` emits the
canonical form (the family plus its non-default fields, primary keys), and
``machine_spec(spec.to_string()) == spec`` for every spec.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.common.errors import ConfigurationError

FAMILIES = ("ref", "dva")

FieldValue = Union[int, bool]


@dataclass(frozen=True)
class FieldInfo:
    """Schema of one sweepable :class:`MachineSpec` field.

    Attributes:
        attribute: the :class:`MachineSpec` attribute the field stores to.
        key: the primary key used in spec strings (``ports`` rather than
            ``memory_ports``).
        aliases: accepted alternative keys (the attribute name always is).
        kind: ``"int"`` or ``"bool"``.
        families: the simulator families the field applies to.
        lo / hi: inclusive valid range for integer fields.
        power_of_two: integer values must additionally be powers of two.
        default: the value the field takes when a spec leaves it out; also
            what :meth:`MachineSpec.to_string` elides.
        description: one line for ``repro list-archs --schema``.
    """

    attribute: str
    key: str
    aliases: Tuple[str, ...]
    kind: str
    families: Tuple[str, ...]
    default: FieldValue
    lo: int = 0
    hi: int = 0
    power_of_two: bool = False
    description: str = ""

    @property
    def range_text(self) -> str:
        if self.kind == "bool":
            return "on|off"
        text = f"{self.lo}..{self.hi}"
        if self.power_of_two:
            text += " (power of two)"
        return text


FIELDS: Tuple[FieldInfo, ...] = (
    FieldInfo(
        "lanes", "lanes", (), "int", ("ref", "dva"), 1, lo=1, hi=64,
        description="parallel lanes per vector functional unit",
    ),
    FieldInfo(
        "memory_ports", "ports", (), "int", ("ref", "dva"), 1,
        lo=1, hi=16,
        description="memory-port units sharing the address bus",
    ),
    FieldInfo(
        "bypass", "bypass", (), "bool", ("dva",), True,
        description="service loads from the VADQ→AVDQ store→load bypass (paper §7)",
    ),
    FieldInfo(
        "chaining", "chaining", ("load_chaining",), "bool", ("ref",), False,
        description="allow consumers to chain off vector loads (off on the C34)",
    ),
    FieldInfo(
        "instruction_queue", "iq", (), "int", ("dva",), 16,
        lo=1, hi=4096,
        description="slots in each of APIQ, VPIQ and SPIQ",
    ),
    FieldInfo(
        "vector_load_data", "avdq", (), "int", ("dva",), 256,
        lo=1, hi=65536,
        description="AVDQ slots (whole vector registers of load data)",
    ),
    FieldInfo(
        "vector_store_data", "vadq", (), "int", ("dva",), 16,
        lo=1, hi=65536,
        description="VADQ slots (vector store data; the VSAQ follows it)",
    ),
    FieldInfo(
        "scalar_store_address", "ssaq", (), "int", ("dva",), 16,
        lo=1, hi=65536,
        description="SSAQ slots (scalar store addresses)",
    ),
    FieldInfo(
        "cache_line_bytes", "cache_line", ("line_bytes",),
        "int", ("ref", "dva"), 32, lo=4, hi=4096, power_of_two=True,
        description="scalar-cache line size in bytes",
    ),
    FieldInfo(
        "cache_lines", "cache_lines", ("lines",), "int", ("ref", "dva"), 1024,
        lo=1, hi=1048576,
        description="scalar-cache lines (capacity = line bytes × lines)",
    ),
)

_BY_KEY: Dict[str, FieldInfo] = {}
for _info in FIELDS:
    for _key in (_info.key, _info.attribute, *_info.aliases):
        _BY_KEY.setdefault(_key, _info)

_TRUE_WORDS = frozenset({"on", "true", "yes", "1"})
_FALSE_WORDS = frozenset({"off", "false", "no", "0"})


def lookup_field(name: str) -> FieldInfo:
    """Resolve a field by primary key, attribute name or alias."""
    try:
        return _BY_KEY[name.strip().lower()]
    except KeyError:
        known = ", ".join(info.key for info in FIELDS)
        raise ConfigurationError(
            f"unknown machine field {name!r} (known: {known})"
        ) from None


def parse_field_value(info: FieldInfo, text: str) -> FieldValue:
    """Parse one spec-string value according to the field's kind."""
    word = text.strip().lower()
    if info.kind == "bool":
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ConfigurationError(
            f"field {info.key!r} takes on/off, got {text!r}"
        )
    try:
        return int(word)
    except ValueError:
        raise ConfigurationError(
            f"field {info.key!r} takes an integer, got {text!r}"
        ) from None


def _format_value(info: FieldInfo, value: FieldValue) -> str:
    if info.kind == "bool":
        return "on" if value else "off"
    return str(value)


def format_override(key: str, value: FieldValue) -> str:
    """One ``key=value`` spec-string assignment, canonical key and formatting."""
    info = lookup_field(key)
    return f"{info.key}={_format_value(info, value)}"


def parse_assignments(assignments: str, context: str) -> Dict[str, FieldValue]:
    """Parse a spec string's ``key=value,...`` clause into attribute values.

    ``context`` is the full spec string, used only for error messages.
    """
    if not assignments.strip():
        raise ConfigurationError(f"machine spec {context!r} has no assignments")
    overrides: Dict[str, FieldValue] = {}
    for part in assignments.split(","):
        key, eq, value = part.partition("=")
        if not eq or not key.strip() or not value.strip():
            raise ConfigurationError(
                f"malformed assignment {part.strip()!r} in machine spec "
                f"{context!r} (expected key=value)"
            )
        info = lookup_field(key)
        if info.attribute in overrides:
            raise ConfigurationError(
                f"field {info.key!r} assigned twice in machine spec {context!r}"
            )
        overrides[info.attribute] = parse_field_value(info, value)
    return overrides


@dataclass(frozen=True)
class MachineSpec:
    """One machine, described as data.

    ``family`` selects the simulator (``"ref"`` — the in-order reference
    vector machine — or ``"dva"`` — the decoupled machine).  Every other
    field the family has takes its :data:`FIELDS` default when left out;
    fields that only exist on one family (the bypass and the queue depths on
    ``dva``, load chaining on ``ref``) stay ``None`` on the other and are
    rejected there.
    """

    family: str
    lanes: Optional[int] = None
    memory_ports: Optional[int] = None
    bypass: Optional[bool] = None
    chaining: Optional[bool] = None
    instruction_queue: Optional[int] = None
    vector_load_data: Optional[int] = None
    vector_store_data: Optional[int] = None
    scalar_store_address: Optional[int] = None
    cache_line_bytes: Optional[int] = None
    cache_lines: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown machine family {self.family!r} "
                f"(known: {', '.join(FAMILIES)})"
            )
        for info in FIELDS:
            value = getattr(self, info.attribute)
            if self.family not in info.families:
                if value is not None:
                    raise ConfigurationError(
                        f"field {info.key!r} is not valid for family "
                        f"{self.family!r} (applies to: {', '.join(info.families)})"
                    )
                continue
            if value is None:
                object.__setattr__(self, info.attribute, info.default)
                continue
            if info.kind == "bool":
                if not isinstance(value, bool):
                    raise ConfigurationError(
                        f"field {info.key!r} takes on/off, got {value!r}"
                    )
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"field {info.key!r} takes an integer, got {value!r}"
                )
            if not info.lo <= value <= info.hi:
                raise ConfigurationError(
                    f"field {info.key!r} must be in {info.range_text}, got {value}"
                )
            if info.power_of_two and value & (value - 1):
                raise ConfigurationError(
                    f"field {info.key!r} must be a power of two, got {value}"
                )

    # -- introspection ---------------------------------------------------------------

    def overrides(self) -> Dict[str, FieldValue]:
        """The fields that differ from their default, by attribute, in canonical order.

        Exactly what :meth:`to_string` and :meth:`to_json` write out:
        everything else is the :data:`FIELDS` default.
        """
        return {
            info.attribute: getattr(self, info.attribute)
            for info in FIELDS
            if self.family in info.families
            and getattr(self, info.attribute) != info.default
        }

    def with_pins(self, **overrides: FieldValue) -> "MachineSpec":
        """A copy with some fields changed (keys may be primary, alias or attribute)."""
        resolved = {
            lookup_field(name).attribute: value for name, value in overrides.items()
        }
        return replace(self, **resolved)

    # -- string and JSON form ---------------------------------------------------------

    def to_string(self) -> str:
        """The canonical spec string: the family plus its non-default fields."""
        parts = [
            format_override(attribute, value)
            for attribute, value in self.overrides().items()
        ]
        if not parts:
            return self.family
        return f"{self.family}@{','.join(parts)}"

    def to_json(self) -> Dict[str, object]:
        """The non-default fields plus the family, as result provenance."""
        payload: Dict[str, object] = {"family": self.family}
        payload.update(self.overrides())
        return payload


# -- sweep axes ------------------------------------------------------------------------

# The one axis that is not a machine field: per-cell memory latency.
# Everything else a sweep can vary is a MachineSpec field.
LATENCY_AXIS = "latency"


def canonical_axis_name(name: str) -> str:
    """Normalize a sweep-axis name: ``latency`` or any machine-field key."""
    key = name.strip().lower()
    if key == LATENCY_AXIS:
        return LATENCY_AXIS
    return lookup_field(key).key


def _latency(value: object) -> int:
    """One memory latency: a non-negative int, integral float or digit string."""
    if isinstance(value, str) and value.strip().isdecimal():
        return int(value)
    if isinstance(value, float) and value.is_integer() and value >= 0:
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise ConfigurationError(
        f"memory latencies must be non-negative integers, got {value!r}"
    )


def _field_value(info: FieldInfo, value: object) -> FieldValue:
    """One machine-field axis value: its spec-string form or its own type."""
    if isinstance(value, str):
        return parse_field_value(info, value)
    if isinstance(value, int) and isinstance(value, bool) == (info.kind == "bool"):
        return value
    takes = "on/off" if info.kind == "bool" else "an integer"
    raise ConfigurationError(f"field {info.key!r} takes {takes}, got {value!r}")


def parse_axis_values(name: str, values: Iterable[object]) -> Tuple[FieldValue, ...]:
    """Validate and normalize one axis' values (strings are parsed).

    The one check of a latency list, whether it is a sweep's ``latencies``
    field or a ``latency`` axis.
    """
    key = canonical_axis_name(name)
    if key == LATENCY_AXIS:
        parsed: Tuple[FieldValue, ...] = tuple(_latency(value) for value in values)
        repeats = "sweep latencies repeat a value"
    else:
        info = lookup_field(key)
        parsed = tuple(_field_value(info, value) for value in values)
        repeats = f"sweep axis {key!r} repeats a value"
    if not parsed:
        raise ConfigurationError(f"sweep axis {key!r} needs at least one value")
    if len(set(parsed)) != len(parsed):
        raise ConfigurationError(repeats)
    return parsed


def axis_combinations(
    axes: Iterable[Tuple[str, Tuple[FieldValue, ...]]],
) -> List[Tuple[Tuple[str, FieldValue], ...]]:
    """Every (name, value) combination of the axes, axis-major, in order.

    With no axes this is ``[()]`` — one empty combination — so callers can
    iterate unconditionally.
    """
    axes = list(axes)
    if not axes:
        return [()]
    names = [name for name, _ in axes]
    products = itertools.product(*(values for _, values in axes))
    return [tuple(zip(names, combo)) for combo in products]


__all__ = [
    "FAMILIES",
    "FIELDS",
    "FieldInfo",
    "LATENCY_AXIS",
    "MachineSpec",
    "axis_combinations",
    "canonical_axis_name",
    "lookup_field",
    "parse_axis_values",
    "parse_field_value",
]
