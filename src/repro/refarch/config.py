"""Configuration of the reference vector architecture.

This is the *mechanism* layer: a frozen block of every reference-machine
parameter, consumed by :class:`~repro.refarch.simulator.ReferenceSimulator`.
The declarative layer above it — :class:`~repro.core.machine.MachineSpec`
with family ``"ref"`` — builds this block via
:meth:`~repro.core.machine.MachineSpec.to_config`; prefer describing
machines there (``"ref@lanes=2,chaining=on"``) over constructing variant
blocks by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.memory.scalar_cache import ScalarCacheConfig


@dataclass(frozen=True)
class ReferenceConfig:
    """Architectural parameters of the reference (non-decoupled) machine.

    Attributes:
        functional_unit_startup: pipeline depth of the vector functional
            units; the first element of a result becomes available (for
            chaining) this many cycles after the instruction starts.
        allow_load_chaining: when ``True`` consumers may chain off vector
            loads.  The Convex C34 (and the Cray-2/3) do not support this —
            the paper keeps it off — but the flag enables the ablation study
            of that design choice.
        scalar_cache: geometry of the scalar data cache.
        scalar_store_writes_through: when ``True`` scalar stores always use
            the memory port; when ``False`` (default) store hits are absorbed
            by the cache, which is how the paper can count the scalar cache as
            a resource separate from the memory port.
        lanes: parallel lanes per vector functional unit (the classic
            Cray/NEC scaling axis).  A length-VL operation occupies its unit
            for ``ceil(VL / lanes)`` cycles; the paper's machine has one lane.
        memory_ports: identical memory-port units sharing the address bus;
            references pick the least-loaded port.  The paper's machine has
            one.
    """

    functional_unit_startup: int = 4
    allow_load_chaining: bool = False
    scalar_cache: ScalarCacheConfig = field(default_factory=ScalarCacheConfig)
    scalar_store_writes_through: bool = False
    lanes: int = 1
    memory_ports: int = 1

    def __post_init__(self) -> None:
        if self.functional_unit_startup < 0:
            raise ConfigurationError("functional unit startup cannot be negative")
        if self.lanes <= 0:
            raise ConfigurationError("a vector unit needs at least one lane")
        if self.memory_ports <= 0:
            raise ConfigurationError("the machine needs at least one memory port")
