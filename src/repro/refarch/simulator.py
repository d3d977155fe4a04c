"""One-pass timing simulator of the reference vector architecture.

The machine is in-order and issue-blocking: the dispatcher looks at one
instruction at a time and cannot move past it until the instruction has
started executing.  An instruction starts executing when

* the dispatcher has reached it (at most one instruction per cycle),
* its source operands are available — fully written for most producers, or
  merely *started* when flexible chaining applies (functional unit to
  functional unit and functional unit to store; never after a vector load),
* and its execution resource is free (FU1/FU2 for vector arithmetic, the
  memory port for vector memory and scalar-cache misses).

The timing machinery — the register scoreboard, the functional-unit and
memory-port pools, stall accounting and the completion horizon — is the
shared :mod:`repro.engine` kernel; this module contributes only the issue
rules of the reference machine.  The issue loop runs over the trace's
columns: per dynamic instruction it reads the precomputed
:class:`~repro.trace.columns.InstructionInfo` of the static instruction plus
the vector-length and address columns into locals, so the per-record cost is
integer indexing rather than attribute access on record objects.  Processing
the trace once in program order yields exactly the timing a cycle-by-cycle
simulation would produce, at a small fraction of the cost.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import SimulationError
from repro.engine import MemoryFabric, TimingCore, occupancy_cycles
from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.memory.model import MemoryModel
from repro.refarch.config import ReferenceConfig
from repro.refarch.result import ReferenceResult
from repro.trace.columns import (
    KIND_QUEUE_MOVE,
    KIND_SCALAR_MEMORY,
    KIND_VECTOR_COMPUTE,
    KIND_VECTOR_MEMORY,
)
from repro.trace.record import Trace

_FU1 = 0
_FU2 = 1


class ReferenceSimulator:
    """Simulates one trace on the reference architecture."""

    def __init__(
        self,
        memory: MemoryModel,
        config: Optional[ReferenceConfig] = None,
    ) -> None:
        self.memory = memory
        self.config = config if config is not None else ReferenceConfig()

    # -- public API ----------------------------------------------------------------

    def run(self, trace: Trace) -> ReferenceResult:
        """Simulate ``trace`` and return the measured result."""
        state = _SimulationState(self.memory, self.config)
        state.consume(trace)
        return state.finish(trace)


def simulate_reference(
    trace: Trace,
    latency: int,
    config: Optional[ReferenceConfig] = None,
) -> ReferenceResult:
    """Convenience wrapper: simulate ``trace`` at the given memory latency."""
    simulator = ReferenceSimulator(MemoryModel(latency=latency), config=config)
    return simulator.run(trace)


class _SimulationState:
    """Issue rules of the reference machine over a :class:`TimingCore`."""

    def __init__(self, memory: MemoryModel, config: ReferenceConfig) -> None:
        self.memory = memory
        self.config = config
        self.core = TimingCore()
        self.fus = self.core.add_pool("FU", count=2, unit_names=("FU1", "FU2"))
        self.fabric = MemoryFabric(
            memory,
            config.scalar_cache,
            ports=config.memory_ports,
            scalar_store_writes_through=config.scalar_store_writes_through,
        )

        self.dispatch_free = 0
        self.instructions = 0
        self.vector_instructions = 0
        self.scalar_instructions = 0

    # -- main issue loop ---------------------------------------------------------------

    def consume(self, trace: Trace) -> None:
        """Issue every dynamic instruction of the trace, in program order.

        One pass over the columns with per-field locals: the static facts of
        each instruction come from the shared
        :class:`~repro.trace.columns.InstructionInfo` table, the dynamic
        facts (VL, base address) from integer column reads.
        """
        columns = trace.columns
        infos = columns.instruction_infos()
        insn = columns.insn
        lengths = columns.vl
        addresses = columns.addr
        read = self.core.scoreboard.read

        vector_instructions = 0
        for index in range(len(insn)):
            info = infos[insn[index]]
            may_chain = info.may_chain
            earliest = self.dispatch_free
            for register in info.sources:
                ready = read(register, allow_chain=may_chain)
                if ready > earliest:
                    earliest = ready

            kind = info.kind
            if kind == KIND_VECTOR_COMPUTE:
                vector_instructions += 1
                self._issue_vector_compute(info, lengths[index], earliest)
            elif kind == KIND_VECTOR_MEMORY:
                vector_instructions += 1
                self._issue_vector_memory(info, lengths[index], addresses[index], earliest)
            elif kind == KIND_SCALAR_MEMORY:
                self._issue_scalar_memory(info, addresses[index], earliest)
            elif kind == KIND_QUEUE_MOVE:
                raise SimulationError(
                    "queue-move opcodes are internal to the decoupled architecture "
                    "and cannot appear in a reference-architecture trace"
                )
            else:
                self._issue_scalar(info, earliest)

        self.instructions = len(insn)
        self.vector_instructions = vector_instructions
        self.scalar_instructions = len(insn) - vector_instructions

    # -- per-class issue rules -----------------------------------------------------------

    def _advance_dispatch(self, issue_time: int) -> None:
        self.core.stalls.stall("dispatch", issue_time - self.dispatch_free)
        self.dispatch_free = issue_time + 1

    def _issue_scalar(self, info, earliest: int) -> None:
        issue_time = earliest
        self._advance_dispatch(issue_time)
        completion = issue_time + 1
        for register in info.destinations:
            self.core.scoreboard.write(register, completion)
        self.core.bump(completion)
        self.core.stalls.account("scalar", 1)

    def _issue_vector_compute(self, info, vector_length: int, earliest: int) -> None:
        busy = occupancy_cycles(vector_length, self.config.lanes)

        unit = _FU2 if info.requires_fu2 else None
        issue_time, _unit = self.fus.acquire(earliest, busy, unit=unit)
        self._advance_dispatch(issue_time)

        startup = self.config.functional_unit_startup
        first_element = issue_time + startup
        completion = issue_time + startup + busy
        write = self.core.scoreboard.write
        for register, is_vector in info.destination_flags:
            # Scalar results of reductions are not chainable; vector results are.
            write(
                register,
                completion,
                chain_start=first_element if is_vector else None,
            )
        self.core.bump(completion)
        self.core.stalls.account("vector_compute", busy)

    def _issue_vector_memory(
        self, info, vector_length: int, address: int, earliest: int
    ) -> None:
        memory = self.memory
        bus_cycles = memory.vector_bus_cycles(vector_length)
        traffic = vector_length * ELEMENT_SIZE_BYTES
        issue_time, bus_end = self.fabric.occupy_bus(earliest, bus_cycles, traffic)
        self._advance_dispatch(issue_time)

        if info.is_load:
            completion = memory.load_ready(issue_time, bus_cycles)
            chain_start = (
                memory.first_element_arrival(issue_time)
                if self.config.allow_load_chaining
                else None
            )
            write = self.core.scoreboard.write
            for register in info.destinations:
                write(register, completion, chain_start=chain_start)
            self.core.bump(completion)
        else:
            completion = issue_time + bus_cycles
            self.core.bump(completion)
        self.core.stalls.account("vector_memory", bus_end - issue_time)

    def _issue_scalar_memory(self, info, address: int, earliest: int) -> None:
        fabric = self.fabric
        is_store = info.is_store
        access = fabric.scalar_access_at(address, is_store)

        if access.uses_port:
            issue_time, _bus_end = fabric.occupy_bus(
                earliest, self.memory.timings.scalar_bus_cycles, ELEMENT_SIZE_BYTES
            )
        else:
            issue_time = earliest
        self._advance_dispatch(issue_time)

        if not is_store:
            completion = fabric.scalar_load_ready(access, issue_time)
            write = self.core.scoreboard.write
            for register in info.destinations:
                write(register, completion)
        else:
            completion = issue_time + 1
        self.core.bump(completion)
        self.core.stalls.account("scalar_memory", 1)

    # -- wind-down -------------------------------------------------------------------------

    def finish(self, trace: Trace) -> ReferenceResult:
        total_cycles = self.core.finish_time(self.dispatch_free)
        return ReferenceResult(
            program=trace.name,
            latency=self.memory.latency,
            total_cycles=total_cycles,
            instructions=self.instructions,
            vector_instructions=self.vector_instructions,
            scalar_instructions=self.scalar_instructions,
            fu1_busy=self.fus.recorder(_FU1),
            fu2_busy=self.fus.recorder(_FU2),
            port_busy=self.fabric.port_recorder(),
            memory_traffic_bytes=self.fabric.traffic_bytes,
            scalar_cache_hits=self.fabric.cache.hits,
            scalar_cache_misses=self.fabric.cache.misses,
            dispatch_stall_cycles=self.core.stalls.stalls("dispatch"),
            category_cycles=self.core.stalls.categories(),
        )
