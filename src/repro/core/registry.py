"""The :class:`Simulator` protocol and the architecture registry.

The two simulators in the library grew incompatible entry points
(``ReferenceSimulator(memory, config).run(trace)`` versus
``DecoupledSimulator(memory, config).run(trace)`` with different config and
result types).  This module hides both behind one shape::

    result = architecture("dva").simulate(trace, RunConfig(latency=50))

Architectures are *data*: every built-in name is a
:class:`~repro.core.machine.MachineSpec` preset resolved into a
:class:`SpecArchitecture`, and inline spec strings resolve on the fly, so

    architecture("dva@lanes=2,ports=2,bypass=off")

is a machine nobody had to write code for.  The registry is seeded with the
paper's three machines — ``"ref"``, ``"dva"`` (store→load bypass enabled,
paper §7) and ``"dva-nobypass"`` (the §5 baseline decoupled machine) — plus
two engine-derived variants, ``"ref-2lane"`` and ``"dva-2port"``, and stays
extensible through :func:`register_architecture` (now a thin wrapper over
spec resolution: pass a :class:`MachineSpec` or any ready-made simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Protocol, Tuple, Union, runtime_checkable

from repro.common.errors import ConfigurationError
from repro.core.config import RunConfig
from repro.core.machine import (
    PRESETS,
    MachineSpec,
    format_override,
    lookup_field,
    parse_assignments,
)
from repro.core.result import RunResult
from repro.dva.simulator import DecoupledSimulator
from repro.memory.model import MemoryModel
from repro.refarch.simulator import ReferenceSimulator
from repro.trace.record import Trace


@runtime_checkable
class Simulator(Protocol):
    """Anything that can turn a trace plus a run configuration into a result.

    Implementations must be stateless across calls (one ``simulate`` call must
    not affect the next) so the sweep runner can reuse them freely across
    cells and processes.
    """

    name: str
    description: str

    def simulate(self, trace: Trace, config: RunConfig) -> RunResult:
        """Simulate ``trace`` under ``config`` and return the unified result."""
        ...


@dataclass(frozen=True)
class SpecArchitecture:
    """A :class:`MachineSpec` resolved into a runnable :class:`Simulator`.

    The spec's pinned fields override the matching block of the
    :class:`~repro.core.config.RunConfig` (so registry names always mean what
    they say); everything it leaves unpinned is taken from the run
    configuration.  The adapter is a frozen dataclass of plain data, so sweep
    cells pickle into pool workers whether the spec came from a preset, an
    inline string or a runtime registration.
    """

    name: str
    description: str
    spec: MachineSpec

    # Convenience passthroughs so callers (and older code) can introspect the
    # machine without reaching into ``spec``.
    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def lanes(self) -> Optional[int]:
        return self.spec.lanes

    @property
    def memory_ports(self) -> Optional[int]:
        return self.spec.memory_ports

    @property
    def bypass(self) -> Optional[bool]:
        return self.spec.bypass

    def simulate(self, trace: Trace, config: RunConfig) -> RunResult:
        """Run ``trace`` on this machine: the spec's pins override ``config``."""
        memory = MemoryModel(latency=config.latency)
        provenance = self.spec.to_json()
        if self.spec.family == "ref":
            simulator = ReferenceSimulator(
                memory, config=self.spec.apply_reference(config.reference)
            )
            return RunResult.from_reference(
                simulator.run(trace), architecture=self.name, spec=provenance
            )
        simulator = DecoupledSimulator(
            memory, config=self.spec.apply_decoupled(config.decoupled)
        )
        return RunResult.from_decoupled(
            simulator.run(trace), architecture=self.name, spec=provenance
        )


# -- the registry ----------------------------------------------------------------------


_REGISTRY: Dict[str, Simulator] = {}


def register_architecture(
    simulator: Union[Simulator, MachineSpec],
    *,
    name: Optional[str] = None,
    description: str = "",
    replace: bool = False,
) -> Simulator:
    """Add a simulator — or a :class:`MachineSpec` to resolve — to the registry.

    A :class:`MachineSpec` is resolved into a :class:`SpecArchitecture` first
    (``name`` defaults to the spec's canonical string), so registration is a
    thin wrapper over spec resolution.  Names are case-insensitive.
    Registering an existing name raises unless ``replace=True``, to catch
    accidental collisions between extensions.  Returns the registered
    simulator so the call can be used as a decorator tail.
    """
    if isinstance(simulator, MachineSpec):
        simulator = SpecArchitecture(
            name=name if name is not None else simulator.to_string(),
            description=description,
            spec=simulator,
        )
    key = simulator.name.lower()
    if not key:
        raise ConfigurationError("architecture name cannot be empty")
    if key in _REGISTRY and not replace:
        raise ConfigurationError(
            f"architecture {simulator.name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[key] = simulator
    return simulator


def unregister_architecture(name: str) -> None:
    """Remove a registered architecture (used by tests and ablation scripts)."""
    _REGISTRY.pop(name.lower(), None)


def architecture(name: str) -> Simulator:
    """Look up an architecture by name, or resolve an inline spec string.

    Registered names (case-insensitive) win; anything containing ``@`` is
    parsed as a ``base@key=value,...`` machine spec — the base may be any
    registered spec-backed architecture (including runtime registrations),
    not just the built-in presets — and resolved on the fly without being
    registered.
    """
    key = name.lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        if "@" in key:
            spec = _parse_inline_spec(key)
            return SpecArchitecture(
                name=spec.to_string(),
                description=f"inline spec ({spec.to_string()})",
                spec=spec,
            )
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown architecture {name!r} (known: {known}; "
            "inline specs look like 'dva@lanes=2,ports=2')"
        ) from None


def _parse_inline_spec(text: str) -> MachineSpec:
    """Parse ``base@key=value,...`` resolving the base through the registry.

    A registered spec-backed base (runtime registrations included) takes
    precedence; otherwise the built-in presets are tried, so the plain
    ``MachineSpec.from_string`` grammar remains a subset of this one.
    """
    base, _, assignments = text.partition("@")
    registered = _REGISTRY.get(base.strip())
    if registered is None:
        return MachineSpec.from_string(text)
    spec = getattr(registered, "spec", None)
    if not isinstance(spec, MachineSpec):
        raise ConfigurationError(
            f"architecture {base.strip()!r} is not spec-backed; it cannot "
            "be extended with an @-clause"
        )
    return spec.with_pins(**parse_assignments(assignments, text))


def resolve_architecture(
    name: str, overrides: Union[Mapping[str, object], Tuple[Tuple[str, object], ...]] = ()
) -> Simulator:
    """Resolve an architecture name (or inline spec) plus sweep-axis overrides.

    Without overrides this is :func:`architecture`.  With overrides the base
    must be spec-backed (a :class:`SpecArchitecture`); the resolved
    simulator's name — the sweep cell's label — is the *base name* plus the
    override assignments (``"dva-2port@lanes=2"``), not the merged spec's
    canonical string, so labels keep the registered base's identity: two
    bases whose canonical strings coincide (e.g. a fully-pinned preset and a
    partially-pinned registration that inherits the rest from the RunConfig)
    stay distinguishable, and every label re-resolves through
    :func:`architecture` to the same machine.
    """
    base = architecture(name)
    pins = dict(overrides)
    if not pins:
        return base
    spec = getattr(base, "spec", None)
    if not isinstance(spec, MachineSpec):
        raise ConfigurationError(
            f"architecture {name!r} is not spec-backed; machine-axis sweeps "
            "need a MachineSpec preset or inline spec"
        )
    merged = spec.with_pins(**pins)
    # Overrides the base already pins at that exact value change nothing, so
    # they are elided from the label ("dva" stays "dva" at lanes=1); any
    # override that does change the machine appears.  Distinct axis combos
    # therefore always get distinct labels under one base: at most one value
    # per axis can equal the base's pin.
    visible = {
        key: value
        for key, value in pins.items()
        if getattr(spec, lookup_field(key).attribute) != value
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


def machine_spec(name: str) -> MachineSpec:
    """The :class:`MachineSpec` behind a registered name or inline string."""
    simulator = architecture(name)
    spec = getattr(simulator, "spec", None)
    if not isinstance(spec, MachineSpec):
        raise ConfigurationError(
            f"architecture {name!r} is not described by a MachineSpec"
        )
    return spec


_BUILTIN_ORDER = tuple(PRESETS)


def architecture_names() -> List[str]:
    """Registered architecture names, built-ins first."""
    builtin = [name for name in _BUILTIN_ORDER if name in _REGISTRY]
    extensions = sorted(set(_REGISTRY) - set(builtin))
    return builtin + extensions


def simulate(
    trace: Trace,
    architecture_name: str,
    latency: Optional[int] = None,
    config: Optional[RunConfig] = None,
) -> RunResult:
    """One-call entry point: simulate ``trace`` on a named architecture.

    ``latency`` is a convenience shortcut for the common case; pass a full
    :class:`RunConfig` to control the architectural parameter blocks too.
    """
    if config is None:
        config = RunConfig(latency=latency if latency is not None else 1)
    elif latency is not None:
        config = config.with_latency(latency)
    return architecture(architecture_name).simulate(trace, config)


for _preset in PRESETS.values():
    register_architecture(
        _preset.spec, name=_preset.name, description=_preset.description
    )
