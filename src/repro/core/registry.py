"""The architecture registry: named :class:`MachineSpec` machines.

The two simulators in the library have family-specific entry points
(``ReferenceSimulator(spec, latency).run(trace)`` versus
``DecoupledSimulator(spec, latency).run(trace)`` with different result
types).  This module hides both behind one shape::

    result = architecture("dva").simulate(trace, RunConfig(latency=50))

Architectures are *data*: the registry holds only
:class:`SpecArchitecture` records — a name, a description and the
:class:`~repro.core.machine.MachineSpec` that is the whole machine — and
inline spec strings resolve on the fly, so

    architecture("dva@lanes=2,ports=2,bypass=off")

is a machine nobody had to write code for.  The registry is seeded with the
paper's three machines — ``"ref"``, ``"dva"`` (store→load bypass enabled,
paper §7) and ``"dva-nobypass"`` (the §5 baseline decoupled machine) — plus
two engine-derived variants, ``"ref-2lane"`` and ``"dva-2port"``, and
:func:`register_architecture` names further specs.  :func:`machine_spec` is
the one spec-string parser: the base of ``base@key=value,...`` may be any
registered name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.core.config import RunConfig
from repro.core.machine import (
    MachineSpec,
    format_override,
    lookup_field,
    parse_assignments,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import RunResult
    from repro.trace.columns import Trace


@dataclass(frozen=True)
class SpecArchitecture:
    """A named :class:`MachineSpec`, ready to simulate.

    The spec is the whole machine; the run configuration only supplies the
    memory latency.  The record is a frozen dataclass of plain data, so
    sweep cells pickle into pool workers whether the spec came from a
    built-in, an inline string or a runtime registration.
    """

    name: str
    description: str
    spec: MachineSpec

    def simulate(self, trace: Trace, config: RunConfig) -> RunResult:
        """Run ``trace`` on this machine at ``config.latency``.

        The family's simulator is imported here, at the first simulation,
        so resolving machines and building sweep grids never loads one.
        """
        from repro.core.result import RunResult

        provenance = self.spec.to_json()
        if self.spec.family == "ref":
            from repro.refarch.simulator import ReferenceSimulator

            return RunResult.from_reference(
                ReferenceSimulator(self.spec, config.latency).run(trace),
                architecture=self.name,
                spec=provenance,
            )
        from repro.dva.simulator import DecoupledSimulator

        return RunResult.from_decoupled(
            DecoupledSimulator(self.spec, config.latency).run(trace),
            architecture=self.name,
            spec=provenance,
        )


# -- the registry ----------------------------------------------------------------------

# The paper's machines and the engine-derived variants.  The family names are
# built-ins, so a bare family is always a valid spec-string base.
_BUILTINS = (
    SpecArchitecture(
        "ref",
        "reference in-order vector machine (paper §2.1)",
        MachineSpec(family="ref"),
    ),
    SpecArchitecture(
        "dva",
        "decoupled vector machine with store→load bypass (paper §7)",
        MachineSpec(family="dva"),
    ),
    SpecArchitecture(
        "dva-nobypass",
        "decoupled vector machine without the bypass (paper §5)",
        MachineSpec(family="dva", bypass=False),
    ),
    SpecArchitecture(
        "ref-2lane",
        "reference machine with a two-lane vector unit",
        MachineSpec(family="ref", lanes=2),
    ),
    SpecArchitecture(
        "dva-2port",
        "decoupled machine (bypass on) with two memory ports",
        MachineSpec(family="dva", memory_ports=2),
    ),
)

_REGISTRY: Dict[str, SpecArchitecture] = {arch.name: arch for arch in _BUILTINS}
_BUILTIN_NAMES = tuple(_REGISTRY)

# Characters of the spec-string and ``--arch`` list grammar: a name holding
# one would be read back as a different machine, or as several.
_SEPARATORS = ("@", ",", "=")


def register_architecture(
    spec: MachineSpec, *, name: str = "", description: str = ""
) -> SpecArchitecture:
    """Register ``spec`` under ``name`` (case-insensitive) and return the record.

    The name is required, must be new, and may not contain a spec-string
    separator (``@``, ``,`` or ``=``).
    """
    if not isinstance(spec, MachineSpec):
        raise ConfigurationError(
            f"register_architecture takes a MachineSpec, got {type(spec).__name__}"
        )
    key = name.lower()
    if not key:
        raise ConfigurationError("architecture name cannot be empty")
    separators = [char for char in _SEPARATORS if char in key]
    if separators:
        raise ConfigurationError(
            f"architecture name {name!r} contains {separators[0]!r}, which "
            "spec strings and --arch lists use as a separator"
        )
    if key in _REGISTRY:
        raise ConfigurationError(f"architecture {name!r} is already registered")
    _REGISTRY[key] = SpecArchitecture(name=name, description=description, spec=spec)
    return _REGISTRY[key]


def unregister_architecture(name: str) -> None:
    """Remove a registered architecture (used by tests and ablation scripts)."""
    _REGISTRY.pop(name.lower(), None)


def machine_spec(text: str) -> MachineSpec:
    """Parse ``base[@key=value,...]``; the base may be any registered name.

    The clause's assignments are set on the base's spec, so
    ``machine_spec("dva-2port@lanes=2") == machine_spec("dva@lanes=2,ports=2")``.
    """
    base, at, assignments = text.strip().lower().partition("@")
    base = base.strip()
    if not base:
        raise ConfigurationError(f"machine spec {text!r} has no base machine")
    registered = _REGISTRY.get(base)
    if registered is None:
        known = ", ".join(architecture_names())
        raise ConfigurationError(
            f"unknown architecture {base!r} (known: {known}; "
            "inline specs look like 'dva@lanes=2,ports=2')"
        )
    if not at:
        return registered.spec
    return registered.spec.with_pins(**parse_assignments(assignments, text))


def architecture(name: str) -> SpecArchitecture:
    """Look up an architecture by name, or resolve an inline spec string.

    Registered names (case-insensitive) win; anything else is parsed by
    :func:`machine_spec` and resolved on the fly, under its canonical spec
    string, without being registered.
    """
    registered = _REGISTRY.get(name.lower())
    if registered is not None:
        return registered
    spec = machine_spec(name)
    return SpecArchitecture(
        name=spec.to_string(),
        description=f"inline spec ({spec.to_string()})",
        spec=spec,
    )


def resolve_architecture(
    name: str, overrides: Union[Mapping[str, object], Tuple[Tuple[str, object], ...]] = ()
) -> SpecArchitecture:
    """Resolve an architecture name (or inline spec) plus sweep-axis overrides.

    Without overrides this is :func:`architecture`.  With overrides the
    resolved machine's name — the sweep cell's label — is the *base name*
    plus the override assignments (``"dva-2port@lanes=2"``), not the merged
    spec's canonical string, so labels keep the registered base's identity
    and every label re-resolves through :func:`architecture` to the same
    machine.
    """
    base = architecture(name)
    pins = dict(overrides)
    if not pins:
        return base
    merged = base.spec.with_pins(**pins)
    # Overrides the base already has at that exact value change nothing, so
    # they are elided from the label ("dva" stays "dva" at lanes=1); any
    # override that does change the machine appears.  Distinct axis combos
    # therefore always get distinct labels under one base: at most one value
    # per axis can equal the base's value.
    visible = {
        key: value
        for key, value in pins.items()
        if getattr(base.spec, lookup_field(key).attribute) != value
    }
    if not visible:
        return SpecArchitecture(name=base.name, description=base.description, spec=merged)
    # When the base name already carries an @-clause, rebuild it rather than
    # blindly appending: an override of a field the clause assigns must
    # replace that assignment, or the label would carry the key twice
    # ("dva@lanes=2,lanes=1") — misleading and unparseable.
    prefix, _, clause = base.name.partition("@")
    parts: List[str] = []
    if clause:
        existing = parse_assignments(clause, base.name)
        for key in visible:
            existing.pop(lookup_field(key).attribute, None)
        parts = [format_override(attr, value) for attr, value in existing.items()]
    parts.extend(format_override(key, value) for key, value in visible.items())
    return SpecArchitecture(
        name=f"{prefix}@{','.join(parts)}",
        description=base.description,
        spec=merged,
    )


def architecture_names() -> List[str]:
    """Registered architecture names, built-ins first."""
    builtin = [name for name in _BUILTIN_NAMES if name in _REGISTRY]
    extensions = sorted(set(_REGISTRY) - set(builtin))
    return builtin + extensions


def simulate(trace: Trace, architecture_name: str, latency: int = 1) -> RunResult:
    """One-call entry point: simulate ``trace`` on a named architecture."""
    return architecture(architecture_name).simulate(trace, RunConfig(latency=latency))
