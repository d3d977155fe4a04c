"""Configuration of the decoupled vector architecture.

This is the *mechanism* layer: frozen blocks of every decoupled-machine
parameter, consumed by :class:`~repro.dva.simulator.DecoupledSimulator`.
The declarative layer above it — :class:`~repro.core.machine.MachineSpec`
with family ``"dva"`` — builds these blocks via
:meth:`~repro.core.machine.MachineSpec.to_config`; prefer describing
machines there (``"dva@ports=2,avdq=4,bypass=off"``) over constructing
variant blocks by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.memory.scalar_cache import ScalarCacheConfig


@dataclass(frozen=True)
class QueueSizes:
    """Capacities of the architectural queues (paper §5 defaults).

    Attributes:
        instruction_queue: slots in each of APIQ, VPIQ and SPIQ.
        vector_load_data: slots in the AVDQ; each slot holds one whole vector
            register (the paper's default study uses 256, the bypass study
            reduces it to 4).
        vector_store_data: slots in the VADQ (16 in all paper experiments).
        vector_store_address: slots in the VSAQ; the paper treats the "store
            queue length" as a single parameter, so this defaults to the same
            value as ``vector_store_data``.
        scalar_store_address: slots in the SSAQ.
        scalar_data: slots in the scalar data queues between AP and SP.
    """

    instruction_queue: int = 16
    vector_load_data: int = 256
    vector_store_data: int = 16
    vector_store_address: int | None = None
    scalar_store_address: int = 16
    scalar_data: int = 256

    def __post_init__(self) -> None:
        for name in ("instruction_queue", "vector_load_data", "vector_store_data",
                     "scalar_store_address", "scalar_data"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"queue size {name!r} must be positive")
        if self.vector_store_address is not None and self.vector_store_address <= 0:
            raise ConfigurationError("queue size 'vector_store_address' must be positive")

    @property
    def effective_vector_store_address(self) -> int:
        """VSAQ size: defaults to the VADQ size unless overridden."""
        if self.vector_store_address is not None:
            return self.vector_store_address
        return self.vector_store_data


@dataclass(frozen=True)
class DecoupledConfig:
    """Architectural parameters of the decoupled machine.

    Attributes:
        queues: capacities of the architectural queues.
        enable_bypass: service loads identical to a queued store from the
            VADQ→AVDQ bypass path instead of main memory (paper §7).
        qmov_units: number of queue-move units in the VP (the paper uses two).
        functional_unit_startup: pipeline depth of the vector functional units.
        queue_move_startup: cycles before the first element moved by a QMOV
            becomes available for chaining.
        cross_processor_delay: cycles to move a scalar value between
            processors through the (large) scalar queues.
        scalar_cache: geometry of the scalar cache in front of the AP.
        scalar_store_writes_through: when ``True`` scalar stores always use
            the memory port.
        lanes: parallel lanes per vector functional unit; a length-VL
            operation occupies its unit for ``ceil(VL / lanes)`` cycles.
        memory_ports: identical memory-port units sharing the address bus;
            references pick the least-loaded port.
    """

    queues: QueueSizes = field(default_factory=QueueSizes)
    enable_bypass: bool = False
    qmov_units: int = 2
    functional_unit_startup: int = 4
    queue_move_startup: int = 1
    cross_processor_delay: int = 1
    scalar_cache: ScalarCacheConfig = field(default_factory=ScalarCacheConfig)
    scalar_store_writes_through: bool = False
    lanes: int = 1
    memory_ports: int = 1

    def __post_init__(self) -> None:
        if self.qmov_units <= 0:
            raise ConfigurationError("the VP needs at least one queue-move unit")
        if self.functional_unit_startup < 0 or self.queue_move_startup < 0:
            raise ConfigurationError("pipeline startup cannot be negative")
        if self.cross_processor_delay < 0:
            raise ConfigurationError("cross-processor delay cannot be negative")
        if self.lanes <= 0:
            raise ConfigurationError("a vector unit needs at least one lane")
        if self.memory_ports <= 0:
            raise ConfigurationError("the machine needs at least one memory port")
