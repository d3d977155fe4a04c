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

The register scoreboard and the memory fabric come from the shared
:mod:`repro.engine` kernel; this module contributes the issue rules of the
reference machine, run inline in one loop over the trace's columns.  Per
dynamic instruction the loop reads the static
:class:`~repro.isa.instruction.Instruction` in the trace's table — whose
facts, operands included as integer register ids indexing the scoreboard
lists, were derived when it was built — plus the vector-length and address
columns, so the per-record cost is integer indexing rather than method
calls and dict probes.  Processing
the trace once in program order yields exactly the timing a cycle-by-cycle
simulation would produce, at a small fraction of the cost.  The loop runs
over row ranges between the trace's kernel invocation marks; at each mark,
:mod:`repro.engine.fastforward` may skip the invocations that repeat a
steady state, with results identical to simulating every row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.intervals import IntervalRecorder
from repro.engine import (
    BUS_CYCLES_PER_ELEMENT,
    FU_STARTUP,
    MemoryFabric,
    Scoreboard,
    fastforward,
    vector_bus_cycles,
)
from repro.isa.instruction import KIND_SCALAR_MEMORY, KIND_VECTOR_COMPUTE, KIND_VECTOR_MEMORY
from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.refarch.result import ReferenceResult
from repro.trace.columns import Trace

if TYPE_CHECKING:
    from repro.core.machine import MachineSpec


class ReferenceSimulator:
    """Simulates one trace on a ``ref``-family machine at one memory latency.

    The spec supplies lanes, memory ports, load chaining and the scalar-cache
    geometry; everything else is a fixed value of the paper's machine.  The
    simulator is the machine's state, so it runs one trace.
    """

    def __init__(self, spec: "MachineSpec", latency: int) -> None:
        if spec.family != "ref":
            raise ConfigurationError(
                f"the reference simulator runs 'ref' machines, not {spec.family!r}"
            )
        if latency < 0:
            raise ConfigurationError("memory latency cannot be negative")
        self.spec = spec
        self.scoreboard = Scoreboard()
        self.fabric = MemoryFabric(spec, latency)
        #: Next-free cycle and busy intervals of FU1 and FU2.
        self.fu_free = [0, 0]
        self.fu_busy = [IntervalRecorder("FU1"), IntervalRecorder("FU2")]

        # The latest completion any issued instruction has reached.
        self.horizon = 0
        self.dispatch_free = 0
        self.dispatch_stall_cycles = 0
        self.vector_instructions = 0
        # Execution cycles per category, and the categories in the order
        # they were first charged (the result's dict keeps that order).
        self.scalar_cycles = 0
        self.vector_compute_cycles = 0
        self.vector_memory_cycles = 0
        self.scalar_memory_cycles = 0
        self.first_charged: List[str] = []
        #: Rows the fast-forward skipped; ``None`` until :meth:`run`.
        self.skipped_rows: Optional[int] = None

        #: The interval recorders a fast-forward repeats.
        self.timelines = self.fu_busy + self.fabric.port_busy

    def run(self, trace: Trace) -> ReferenceResult:
        """Issue every dynamic instruction of ``trace``; return the result.

        :func:`repro.engine.fastforward.consume` walks the trace's invocation
        marks, runs :meth:`issue` between them and skips the invocations a
        steady state makes predictable.
        """
        if self.skipped_rows is not None:
            raise SimulationError("a simulator runs one trace; build a new one")
        self.skipped_rows = fastforward.consume(self, trace)
        return self.finish(trace)

    # -- main issue loop ---------------------------------------------------------------

    def issue(self, trace: Trace, first: int, stop: int) -> None:
        """Issue rows ``[first, stop)`` of the trace, in program order.

        One pass over the columns: the static facts of each instruction come
        from the trace's :class:`~repro.isa.instruction.Instruction` table,
        the dynamic facts (VL, base address) from integer column reads.  The
        issue rules of every instruction class run inline on locals — the
        scoreboard lists, the functional-unit free times and busy-interval
        lists, the dispatch pointer, the horizon, the stall and category
        counters — which are written back at the end of the range.

        The scoreboard read rule: a chaining consumer may start at the
        producer's chain start when it has one; any other read waits for the
        value to be fully written.  The unit pick: an instruction needing FU2
        takes FU2; any other takes the least-loaded unit, FU1 winning ties.
        """
        instructions = trace.instructions
        insn = trace.insn
        lengths = trace.vl
        addresses = trace.addr

        lanes = self.spec.lanes
        load_chaining = self.spec.chaining
        fabric = self.fabric
        latency = fabric.latency
        cache_access = fabric.cache.access
        occupy_bus = fabric.occupy_bus
        load_ready = fabric.vector_load_ready
        bus_cycles_of = vector_bus_cycles
        fu1_free, fu2_free = self.fu_free
        fu1, fu2 = self.fu_busy
        fu1_start, fu1_end = fu1.starts.append, fu1.ends.append
        fu2_start, fu2_end = fu2.starts.append, fu2.ends.append
        scoreboard = self.scoreboard
        ready_at = scoreboard.ready
        chain_at = scoreboard.chain_start

        dispatch_free = self.dispatch_free
        horizon = self.horizon
        dispatch_stall = 0
        vector_instructions = 0
        scalar_cycles = self.scalar_cycles
        vector_compute_cycles = self.vector_compute_cycles
        vector_memory_cycles = self.vector_memory_cycles
        scalar_memory_cycles = self.scalar_memory_cycles
        first_charged = self.first_charged

        for index in range(first, stop):
            instruction = instructions[insn[index]]
            earliest = dispatch_free
            if instruction.may_chain:
                for register in instruction.source_ids:
                    operand = chain_at[register]
                    if operand is None:
                        operand = ready_at[register]
                    if operand > earliest:
                        earliest = operand
            else:
                for register in instruction.source_ids:
                    operand = ready_at[register]
                    if operand > earliest:
                        earliest = operand

            kind = instruction.kind
            if kind == KIND_VECTOR_COMPUTE:
                vector_instructions += 1
                # occupancy_cycles(VL, lanes), inlined.
                busy = lengths[index]
                busy = -(-busy // lanes) if busy > 1 else 1
                if instruction.requires_fu2 or fu2_free < fu1_free:
                    issue_time = fu2_free if fu2_free > earliest else earliest
                    fu2_free = issue_time + busy
                    fu2_start(issue_time)
                    fu2_end(fu2_free)
                else:
                    issue_time = fu1_free if fu1_free > earliest else earliest
                    fu1_free = issue_time + busy
                    fu1_start(issue_time)
                    fu1_end(fu1_free)
                dispatch_stall += issue_time - dispatch_free
                dispatch_free = issue_time + 1
                first_element = issue_time + FU_STARTUP
                completion = first_element + busy
                # Scalar results of reductions are not chainable; vector
                # results are.
                for register, is_vector in instruction.destination_id_flags:
                    ready_at[register] = completion
                    chain_at[register] = first_element if is_vector else None
                if not vector_compute_cycles:
                    first_charged.append("vector_compute")
                vector_compute_cycles += busy
            elif kind == KIND_VECTOR_MEMORY:
                vector_instructions += 1
                vector_length = lengths[index]
                bus_cycles = bus_cycles_of(vector_length)
                issue_time, bus_end = occupy_bus(
                    earliest, bus_cycles, vector_length * ELEMENT_SIZE_BYTES
                )
                dispatch_stall += issue_time - dispatch_free
                dispatch_free = issue_time + 1
                if instruction.is_load:
                    completion = load_ready(issue_time, bus_cycles)
                    # The port is pipelined: the first element arrives after
                    # the latency.
                    first_element = issue_time + latency if load_chaining else None
                    for register in instruction.destination_ids:
                        ready_at[register] = completion
                        chain_at[register] = first_element
                else:
                    completion = issue_time + bus_cycles
                if not vector_memory_cycles:
                    first_charged.append("vector_memory")
                vector_memory_cycles += bus_end - issue_time
            elif kind == KIND_SCALAR_MEMORY:
                # Only a miss uses the port; store hits stay in the cache.
                hit = cache_access(addresses[index])
                if hit:
                    issue_time = earliest
                else:
                    issue_time, _bus_end = occupy_bus(
                        earliest, BUS_CYCLES_PER_ELEMENT, ELEMENT_SIZE_BYTES
                    )
                dispatch_stall += issue_time - dispatch_free
                dispatch_free = issue_time + 1
                if instruction.is_store:
                    completion = issue_time + 1
                else:
                    completion = fabric.scalar_load_ready(hit, issue_time)
                    for register in instruction.destination_ids:
                        ready_at[register] = completion
                        chain_at[register] = None
                if not scalar_memory_cycles:
                    first_charged.append("scalar_memory")
                scalar_memory_cycles += 1
            else:
                # Scalar computation, vector control and branches: one cycle.
                dispatch_stall += earliest - dispatch_free
                dispatch_free = earliest + 1
                completion = dispatch_free
                for register in instruction.destination_ids:
                    ready_at[register] = completion
                    chain_at[register] = None
                if not scalar_cycles:
                    first_charged.append("scalar")
                scalar_cycles += 1
            if completion > horizon:
                horizon = completion

        self.fu_free[:] = (fu1_free, fu2_free)
        self.dispatch_free = dispatch_free
        self.horizon = horizon
        self.dispatch_stall_cycles += dispatch_stall
        self.vector_instructions += vector_instructions
        self.scalar_cycles = scalar_cycles
        self.vector_compute_cycles = vector_compute_cycles
        self.vector_memory_cycles = vector_memory_cycles
        self.scalar_memory_cycles = scalar_memory_cycles

    # -- fast-forward ---------------------------------------------------------------------

    def fingerprint(self) -> tuple:
        """The loop's state at a mark, relative to the horizon (see fastforward).

        Every instruction issues no earlier than the dispatch pointer, so a
        register ready before it is stale.  The functional-unit free times
        decide the unit picks, so they must all shift.
        """
        origin = self.horizon
        dispatch = self.dispatch_free
        return (
            dispatch - origin,
            self.scoreboard.relative(origin, dispatch),
            tuple(free - origin for free in self.fu_free),
            self.fabric.relative(origin),
        )

    def counters(self) -> List[Tuple[object, str]]:
        """The additive counters a fast-forward adds up, as (object, attribute)."""
        return [
            (self, "dispatch_stall_cycles"),
            (self, "vector_instructions"),
            (self, "scalar_cycles"),
            (self, "vector_compute_cycles"),
            (self, "vector_memory_cycles"),
            (self, "scalar_memory_cycles"),
            (self.fabric, "traffic_bytes"),
            (self.fabric.cache, "hits"),
            (self.fabric.cache, "misses"),
        ]

    def shift(self, cycles: int) -> None:
        self.horizon += cycles
        self.dispatch_free += cycles
        self.scoreboard.shift(cycles)
        self.fu_free[:] = [free + cycles for free in self.fu_free]
        self.fabric.shift(cycles)

    # -- wind-down -------------------------------------------------------------------------

    def finish(self, trace: Trace) -> ReferenceResult:
        total_cycles = max(self.horizon, self.dispatch_free)
        totals = {
            "scalar": self.scalar_cycles,
            "vector_compute": self.vector_compute_cycles,
            "vector_memory": self.vector_memory_cycles,
            "scalar_memory": self.scalar_memory_cycles,
        }
        return ReferenceResult(
            program=trace.name,
            latency=self.fabric.latency,
            total_cycles=total_cycles,
            instructions=len(trace),
            vector_instructions=self.vector_instructions,
            scalar_instructions=len(trace) - self.vector_instructions,
            fu1_busy=self.fu_busy[0],
            fu2_busy=self.fu_busy[1],
            port_busy=self.fabric.port_recorder(),
            memory_traffic_bytes=self.fabric.traffic_bytes,
            scalar_cache_hits=self.fabric.cache.hits,
            scalar_cache_misses=self.fabric.cache.misses,
            dispatch_stall_cycles=self.dispatch_stall_cycles,
            category_cycles={category: totals[category] for category in self.first_charged},
            skipped_rows=self.skipped_rows,
        )


def simulate_reference(
    trace: Trace,
    latency: int,
    spec: Optional["MachineSpec"] = None,
) -> ReferenceResult:
    """Convenience wrapper: simulate ``trace`` at the given memory latency.

    Without a spec this is the ``ref`` preset.
    """
    if spec is None:
        from repro.core.machine import MachineSpec

        spec = MachineSpec(family="ref")
    return ReferenceSimulator(spec, latency).run(trace)
