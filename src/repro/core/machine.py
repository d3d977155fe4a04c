"""Declarative machine descriptions: architectures as data, not code.

The paper's results are ablations over machine parameters — memory latency,
store→load bypass on/off, datapath width — and every one of those knobs is a
*value*, so the machine itself should be one too.  A :class:`MachineSpec` is
exactly that: a validated, frozen description of one machine — the simulator
family (``ref`` or ``dva``), lanes, memory ports, the bypass and chaining
switches, the decoupled queue depths and the scalar-cache geometry — that
round-trips through strings, JSON and TOML unchanged and that the registry
(:mod:`repro.core.registry`) resolves into a runnable simulator over the
shared :mod:`repro.engine` pools.

Fields are tri-state: ``None`` means *inherit* the value from the
:class:`~repro.core.config.RunConfig` block at simulation time, anything else
*pins* the field so the spec always means the same machine no matter what
configuration it is run under (the registry names ``"dva"`` and
``"dva-nobypass"`` pin the bypass for exactly this reason).

Spec strings use the grammar::

    spec        := base [ "@" assignment { "," assignment } ]
    base        := preset name ("ref", "dva", "dva-nobypass", ...) — the
                   family names are themselves presets
    assignment  := key "=" value
    value       := integer | "on" | "off" | "true" | "false" | "yes" | "no"

so ``dva@lanes=2,ports=2,bypass=off`` is a two-lane, two-port decoupled
machine without the bypass.  :meth:`MachineSpec.to_string` emits the canonical
form (primary keys, non-default pins only), and
``MachineSpec.from_string(spec.to_string())`` is the identity for any spec
parsed from a string.  Note the string form cannot express *inherit*: a
hand-built spec that leaves a preset-pinned field unpinned (e.g.
``MachineSpec(family="dva")`` with no bypass pin) stringifies to the preset
name, whose pins differ.  JSON and TOML preserve the tri-state exactly; use
them when inherit semantics must survive serialization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.dva.config import DecoupledConfig, QueueSizes
from repro.memory.scalar_cache import ScalarCacheConfig
from repro.refarch.config import ReferenceConfig

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
        default: the canonical default — the value the field takes when a
            spec string does not mention it; also what :meth:`MachineSpec.to_string`
            elides.
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
        "scalar_data", "sdq", (), "int", ("dva",), 256,
        lo=1, hi=65536,
        description="scalar data queue slots between AP and SP",
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


def field_infos() -> Tuple[FieldInfo, ...]:
    """The sweepable fields, in canonical (spec-string) order."""
    return FIELDS


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
    """Parse a spec string's ``key=value,...`` clause into attribute pins.

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
    field is optional: ``None`` inherits the corresponding
    :class:`~repro.core.config.RunConfig` block value at simulation time,
    anything else pins the field regardless of the run configuration.
    Fields that only exist on one family (the bypass and the queue depths on
    ``dva``, load chaining on ``ref``) are rejected on the other.
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
    scalar_data: Optional[int] = None
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
            if value is None:
                continue
            if self.family not in info.families:
                raise ConfigurationError(
                    f"field {info.key!r} is not valid for family "
                    f"{self.family!r} (applies to: {', '.join(info.families)})"
                )
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

    def pins(self) -> Dict[str, FieldValue]:
        """The explicitly pinned fields, by attribute name, in canonical order."""
        return {
            info.attribute: getattr(self, info.attribute)
            for info in FIELDS
            if getattr(self, info.attribute) is not None
        }

    def effective(self) -> Dict[str, FieldValue]:
        """Every applicable field with its pinned or canonical-default value."""
        return {
            info.attribute: (
                getattr(self, info.attribute)
                if getattr(self, info.attribute) is not None
                else info.default
            )
            for info in FIELDS
            if self.family in info.families
        }

    def with_pins(self, **overrides: FieldValue) -> "MachineSpec":
        """A copy with extra fields pinned (keys may be primary, alias or attribute)."""
        resolved = {
            lookup_field(name).attribute: value for name, value in overrides.items()
        }
        return replace(self, **resolved)

    # -- string form -----------------------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "MachineSpec":
        """Parse ``base[@key=value,...]``; the base may be any preset name.

        The registry's :func:`~repro.core.registry.architecture` resolves the
        base against *registered* names too (so ``"my-custom@lanes=2"`` works
        once ``"my-custom"`` is registered); this classmethod alone only
        knows the built-in presets.
        """
        base, _, assignments = text.strip().partition("@")
        base = base.strip().lower()
        if not base:
            raise ConfigurationError(f"machine spec {text!r} has no base machine")
        if base in PRESETS:
            spec = PRESETS[base].spec
        else:
            known = ", ".join(PRESETS)
            raise ConfigurationError(
                f"unknown machine preset {base!r} (known: {known})"
            )
        if "@" not in text:
            return spec
        return spec.with_pins(**parse_assignments(assignments, text))

    def to_string(self) -> str:
        """The canonical spec string (primary keys, non-default pins only).

        Inverse of :meth:`from_string` for any spec parsed from a string.
        Lossy for hand-built specs that leave a field *unpinned* where the
        family preset pins it: the string names the preset, whose pins
        differ from inherit semantics — serialize such specs with
        :meth:`to_json`/:meth:`to_toml` instead.
        """
        parts = [
            f"{info.key}={_format_value(info, getattr(self, info.attribute))}"
            for info in FIELDS
            if getattr(self, info.attribute) is not None
            and getattr(self, info.attribute) != info.default
        ]
        if not parts:
            return self.family
        return f"{self.family}@{','.join(parts)}"

    # -- JSON / TOML form ------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """A dictionary that survives ``json.dumps``/``json.loads`` unchanged."""
        payload: Dict[str, object] = {"family": self.family}
        payload.update(self.pins())
        return payload

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "MachineSpec":
        """Rebuild a spec from :meth:`to_json` output (unknown keys rejected)."""
        if "family" not in data:
            raise ConfigurationError("machine spec JSON needs a 'family' key")
        pins: Dict[str, FieldValue] = {}
        for name, value in data.items():
            if name == "family":
                continue
            info = lookup_field(str(name))
            pins[info.attribute] = value  # type: ignore[assignment]
        return cls(family=str(data["family"]), **pins)

    def to_toml(self) -> str:
        """The spec as a flat TOML document."""
        lines = [f'family = "{self.family}"']
        for info in FIELDS:
            value = getattr(self, info.attribute)
            if value is None:
                continue
            if info.kind == "bool":
                lines.append(f"{info.attribute} = {'true' if value else 'false'}")
            else:
                lines.append(f"{info.attribute} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "MachineSpec":
        """Parse :meth:`to_toml` output (any flat TOML table works)."""
        return cls.from_json(_parse_flat_toml(text))

    # -- resolution against the RunConfig blocks --------------------------------------

    def apply_reference(self, config: ReferenceConfig) -> ReferenceConfig:
        """``config`` with this spec's pins applied (family must be ``ref``)."""
        self._require_family("ref")
        updates: Dict[str, object] = {}
        if self.lanes is not None:
            updates["lanes"] = self.lanes
        if self.memory_ports is not None:
            updates["memory_ports"] = self.memory_ports
        if self.chaining is not None:
            updates["allow_load_chaining"] = self.chaining
        cache = self._apply_cache(config.scalar_cache)
        if cache is not None:
            updates["scalar_cache"] = cache
        return replace(config, **updates) if updates else config

    def apply_decoupled(self, config: DecoupledConfig) -> DecoupledConfig:
        """``config`` with this spec's pins applied (family must be ``dva``)."""
        self._require_family("dva")
        updates: Dict[str, object] = {}
        if self.lanes is not None:
            updates["lanes"] = self.lanes
        if self.memory_ports is not None:
            updates["memory_ports"] = self.memory_ports
        if self.bypass is not None:
            updates["enable_bypass"] = self.bypass
        queues = self._apply_queues(config.queues)
        if queues is not None:
            updates["queues"] = queues
        cache = self._apply_cache(config.scalar_cache)
        if cache is not None:
            updates["scalar_cache"] = cache
        return replace(config, **updates) if updates else config

    def _require_family(self, family: str) -> None:
        if self.family != family:
            raise ConfigurationError(
                f"spec {self.to_string()!r} is a {self.family!r}-family machine, "
                f"not {family!r}"
            )

    def _apply_cache(self, cache: ScalarCacheConfig) -> Optional[ScalarCacheConfig]:
        updates: Dict[str, int] = {}
        if self.cache_line_bytes is not None:
            updates["line_bytes"] = self.cache_line_bytes
        if self.cache_lines is not None:
            updates["lines"] = self.cache_lines
        return replace(cache, **updates) if updates else None

    def _apply_queues(self, queues: QueueSizes) -> Optional[QueueSizes]:
        updates: Dict[str, int] = {}
        if self.instruction_queue is not None:
            updates["instruction_queue"] = self.instruction_queue
        if self.vector_load_data is not None:
            updates["vector_load_data"] = self.vector_load_data
        if self.vector_store_data is not None:
            updates["vector_store_data"] = self.vector_store_data
        if self.scalar_store_address is not None:
            updates["scalar_store_address"] = self.scalar_store_address
        if self.scalar_data is not None:
            updates["scalar_data"] = self.scalar_data
        return replace(queues, **updates) if updates else None


def _parse_flat_toml(text: str) -> Dict[str, object]:
    """Parse a flat TOML table: stdlib ``tomllib`` when present, else minimal.

    The fallback understands exactly what :meth:`MachineSpec.to_toml` emits
    (bare ``key = value`` lines with string, boolean and integer values), so
    specs round-trip on Python 3.10 where ``tomllib`` does not exist.
    """
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python 3.10
        tomllib = None
    if tomllib is not None:
        try:
            return dict(tomllib.loads(text))
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"invalid machine spec TOML: {exc}") from exc
    data: Dict[str, object] = {}
    for line in text.splitlines():  # pragma: no cover - Python 3.10
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigurationError(f"invalid machine spec TOML line {line!r}")
        key, value = key.strip(), value.strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            data[key] = value[1:-1]
        elif value in ("true", "false"):
            data[key] = value == "true"
        else:
            try:
                data[key] = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"invalid machine spec TOML value {value!r}"
                ) from None
    return data


# -- presets ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A named, documented :class:`MachineSpec` — the registry's built-ins."""

    name: str
    description: str
    spec: MachineSpec


# The paper's machines and the engine-derived variants.  The family names
# themselves are presets, so a spec-string base is always a preset name.
# Each preset pins its datapath (and, on dva, the bypass) so the name always
# means the same machine no matter the run configuration; everything it
# leaves unpinned inherits from the RunConfig block.
PRESETS: Dict[str, Preset] = {
    preset.name: preset
    for preset in (
        Preset(
            "ref",
            "reference in-order vector machine (paper §2.1)",
            MachineSpec(family="ref", lanes=1, memory_ports=1),
        ),
        Preset(
            "dva",
            "decoupled vector machine with store→load bypass (paper §7)",
            MachineSpec(family="dva", bypass=True, lanes=1, memory_ports=1),
        ),
        Preset(
            "dva-nobypass",
            "decoupled vector machine without the bypass (paper §5)",
            MachineSpec(family="dva", bypass=False, lanes=1, memory_ports=1),
        ),
        Preset(
            "ref-2lane",
            "reference machine with a two-lane vector unit",
            MachineSpec(family="ref", lanes=2, memory_ports=1),
        ),
        Preset(
            "dva-2port",
            "decoupled machine (bypass on) with two memory ports",
            MachineSpec(family="dva", bypass=True, lanes=1, memory_ports=2),
        ),
    )
}


# -- sweep axes ------------------------------------------------------------------------

# The one RunConfig axis: per-cell memory latency.  Everything else a sweep
# can vary is a MachineSpec field.
LATENCY_AXIS = "latency"


def canonical_axis_name(name: str) -> str:
    """Normalize a sweep-axis name: ``latency`` or any machine-field key."""
    key = name.strip().lower()
    if key == LATENCY_AXIS:
        return LATENCY_AXIS
    return lookup_field(key).key


def parse_axis_values(name: str, values: Iterable[object]) -> Tuple[FieldValue, ...]:
    """Validate and normalize one axis' values (strings are parsed)."""
    key = canonical_axis_name(name)
    parsed: List[FieldValue] = []
    if key == LATENCY_AXIS:
        for value in values:
            try:
                latency = int(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"latencies must be integers, got {value!r}"
                ) from None
            if latency < 0:
                raise ConfigurationError("memory latencies cannot be negative")
            parsed.append(latency)
    else:
        info = lookup_field(key)
        for value in values:
            parsed.append(
                parse_field_value(info, value)
                if isinstance(value, str)
                else value  # type: ignore[arg-type]
            )
    if not parsed:
        raise ConfigurationError(f"sweep axis {key!r} needs at least one value")
    if len(set(parsed)) != len(parsed):
        raise ConfigurationError(f"sweep axis {key!r} repeats a value")
    return tuple(parsed)


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
    "PRESETS",
    "Preset",
    "axis_combinations",
    "canonical_axis_name",
    "field_infos",
    "lookup_field",
    "parse_axis_values",
    "parse_field_value",
]
