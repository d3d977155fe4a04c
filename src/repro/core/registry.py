"""The paper's three machines, and the one resolver from a name to a machine.

The two simulators in the library have family-specific entry points
(``ReferenceSimulator(spec, latency).run(trace)`` versus
``DecoupledSimulator(spec, latency).run(trace)`` with different result
types).  This module hides both behind one shape::

    result = architecture("dva").simulate(trace, RunConfig(latency=50))

Machines are *data*: a :class:`SpecArchitecture` is the
:class:`~repro.core.machine.MachineSpec` that is the whole machine.  The
fixed :data:`PRESETS` table names the paper's three machines — ``"ref"``,
``"dva"`` (store→load bypass enabled, paper §7) and ``"dva-nobypass"`` (the
§5 baseline decoupled machine) — and any other machine is a preset plus
field assignments, so

    architecture("dva@lanes=2,ports=2,bypass=off")

is a machine nobody had to write code for.  A machine's label is a function
of its spec alone (:func:`machine_label`): the preset's name when the spec
is a preset, its canonical spec string otherwise.  Every spelling of one
machine — ``dva-nobypass``, ``dva@bypass=off``, ``dva`` with a ``bypass=off``
sweep axis — therefore gets one label, and one store key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, List, Mapping, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.core.config import RunConfig
from repro.core.machine import MachineSpec, parse_assignments

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import RunResult
    from repro.trace.columns import Trace


@dataclass(frozen=True)
class SpecArchitecture:
    """A :class:`MachineSpec`, ready to simulate.

    The spec is the whole machine; the run configuration only supplies the
    memory latency.  ``name`` is the spec's :func:`machine_label`, set when
    the record is built, so it pickles into pool workers with the spec.
    """

    spec: MachineSpec
    name: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", machine_label(self.spec))

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


#: The paper's machines: name → (spec, the line ``repro list-archs`` prints).
PRESETS: Mapping[str, Tuple[MachineSpec, str]] = MappingProxyType(
    {
        "ref": (MachineSpec(family="ref"), "reference in-order vector machine (paper §2.1)"),
        "dva": (
            MachineSpec(family="dva"),
            "decoupled vector machine with store→load bypass (paper §7)",
        ),
        "dva-nobypass": (
            MachineSpec(family="dva", bypass=False),
            "decoupled vector machine without the bypass (paper §5)",
        ),
    }
)

_PRESET_NAMES = {spec: name for name, (spec, _) in PRESETS.items()}


def machine_label(spec: MachineSpec) -> str:
    """The one label of ``spec``: its preset's name, else its canonical spec string."""
    return _PRESET_NAMES.get(spec) or spec.to_string()


def machine_spec(text: str) -> MachineSpec:
    """Parse ``base[@key=value,...]``, where the base is one of the :data:`PRESETS`.

    The clause's assignments are set on the base's spec, so
    ``machine_spec("dva-nobypass@lanes=2") == machine_spec("dva@lanes=2,bypass=off")``.
    """
    base, at, assignments = text.strip().lower().partition("@")
    base = base.strip()
    if not base:
        raise ConfigurationError(f"machine spec {text!r} has no base machine")
    if base not in PRESETS:
        known = ", ".join(architecture_names())
        raise ConfigurationError(
            f"unknown architecture {base!r} (known: {known}; "
            "inline specs look like 'dva@lanes=2,ports=2')"
        )
    spec = PRESETS[base][0]
    if not at:
        return spec
    return spec.with_pins(**parse_assignments(assignments, text))


def architecture(
    name: str, overrides: Union[Mapping[str, object], Tuple[Tuple[str, object], ...]] = ()
) -> SpecArchitecture:
    """Resolve a preset name or inline spec, plus sweep-axis overrides, to a machine.

    The overrides are set on the parsed spec, and the machine is labelled by
    the resulting spec alone (:func:`machine_label`), whatever the spelling.
    """
    spec = machine_spec(name).with_pins(**dict(overrides))
    return SpecArchitecture(spec)


def architecture_names() -> List[str]:
    """The presets' names, in the paper's order."""
    return list(PRESETS)


def simulate(trace: Trace, architecture_name: str, latency: int = 1) -> RunResult:
    """One-call entry point: simulate ``trace`` on a named architecture."""
    return architecture(architecture_name).simulate(trace, RunConfig(latency=latency))
