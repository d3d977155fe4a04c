"""Main-memory timing model.

The model captures the three facts both simulators rely on (paper §2.1, §4.2):

* there is a single pipelined memory port with a shared address bus; a vector
  reference of length VL occupies the bus for exactly VL cycles, a scalar
  reference for one cycle;
* loads see ``latency`` additional cycles before their *first* element arrives
  — because the port is pipelined, the last element of a vector load arrives
  ``latency + VL`` cycles after the load starts using the bus;
* stores never expose latency to the processor: once the addresses have been
  driven, the processor is done with the store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class MemoryTimings:
    """Raw timing parameters of the memory system.

    Attributes:
        latency: cycles between issuing a load address and the arrival of the
            first element (the paper sweeps this from 1 to 100).
        bus_cycles_per_element: address-bus cycles consumed per element of a
            vector reference (1 in the paper).
        scalar_bus_cycles: address-bus cycles consumed by a scalar reference.
    """

    latency: int = 1
    bus_cycles_per_element: int = 1
    scalar_bus_cycles: int = 1

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError("memory latency cannot be negative")
        if self.bus_cycles_per_element <= 0:
            raise ConfigurationError("bus cycles per element must be positive")
        if self.scalar_bus_cycles <= 0:
            raise ConfigurationError("scalar bus cycles must be positive")


class MemoryModel:
    """Answers timing questions about individual memory references."""

    def __init__(self, timings: MemoryTimings | None = None, latency: int | None = None) -> None:
        if timings is not None and latency is not None:
            raise ConfigurationError("pass either timings or latency, not both")
        if timings is None:
            timings = MemoryTimings(latency=latency if latency is not None else 1)
        self.timings = timings

    @property
    def latency(self) -> int:
        return self.timings.latency

    def vector_bus_cycles(self, vector_length: int) -> int:
        """Address-bus cycles a VL-element vector reference holds the port.

        Vector references hold the bus for VL cycles (paper §4.2); a
        zero-length vector reference still spends one cycle issuing.
        """
        elements = vector_length if vector_length > 1 else 1
        return elements * self.timings.bus_cycles_per_element

    @property
    def scalar_bus_cycles(self) -> int:
        """Address-bus cycles one scalar reference holds the port."""
        return self.timings.scalar_bus_cycles

    def load_ready(self, bus_start: int, bus_cycles: int) -> int:
        """Cycle the *last* element of a load arrives, given its bus occupancy.

        The port is pipelined: elements stream back one per bus cycle after
        the initial latency.  Consumers that cannot chain off memory (both
        architectures; paper §2.1 and §4.2) must wait for this cycle.
        """
        return bus_start + self.timings.latency + bus_cycles

    def first_element_arrival(self, bus_start: int) -> int:
        """Cycle at which the first element of a load starting at ``bus_start`` arrives."""
        return bus_start + self.timings.latency

    def with_latency(self, latency: int) -> "MemoryModel":
        """Return a copy of this model with a different latency."""
        return MemoryModel(
            MemoryTimings(
                latency=latency,
                bus_cycles_per_element=self.timings.bus_cycles_per_element,
                scalar_bus_cycles=self.timings.scalar_bus_cycles,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryModel(latency={self.latency})"
