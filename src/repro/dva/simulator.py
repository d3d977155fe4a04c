"""One-pass timing simulator of the decoupled vector architecture.

The simulator performs a single pass over the dynamic trace in program order.
For every traced instruction it advances, in this order, the fetch processor
(which translates and distributes the instruction), the processor that
executes the instruction itself, and the processor that executes the hidden
QMOV companion the fetch processor generated for it.  Because every processor
works through its stream in order and all queues are FIFO, the blocking
behaviour of the bounded queues reduces to timestamp arithmetic, and a single
pass reproduces the timing a cycle-stepped simulation would give.

Most queues are pop-time rings, relying on one invariant: an entry is pushed
and popped in the same trace step.  The fetch processor pushes an
instruction-queue (APIQ, VPIQ, SPIQ) entry and the entry's processor pops it
(issues the instruction) in that step; the AP pushes a vector load's data
into the AVDQ and the VP's QMOV pops it in that step.  So at a push every
earlier entry has already been released, the head entry at a pop is the one
just pushed, and a queue of depth ``n`` is fully described by the pop cycles
of its last ``n`` entries (:func:`~repro.dva.address.ring`).  A push waits
for the oldest of them, ``ring[0]``, and a pop appends its cycle.  The
store queues, whose entries wait across steps for the store to drain, are
the :class:`~repro.dva.address.MemoryPipeline`'s pending stores beside the
same kind of ring; a vector store's data takes the VADQ slot its address
took in the VSAQ, so the QMOV moving it waits for that slot's pop.

The scalar data queues between the AP and the SP hold no state.  The AP
issues a scalar load without waiting for an ASDQ slot, and the SP pops the
value at least one cycle after the data arrives and no earlier than every
older pop, so the entry's push (the load's issue, or a freed slot, itself
an older pop) always precedes its pop and the depth decides nothing.  A
scalar store's data waits beside its SSAQ entry, so an SDQ at least as deep
as the SSAQ is never full while the SSAQ has room.

The register scoreboard and the memory fabric come from the shared
:mod:`repro.engine` kernel; this module contributes the issue rules of the
four processors, and runs them inline in one loop over the trace's
columns.  The functional-unit and QMOV picks run inline on their
free lists, and the functional units' busy intervals are appended inline
(nothing reads the QMOV units'), so a step calls out only for a memory
reference.
Operand register ids come from the trace's table of static
:class:`~repro.isa.instruction.Instruction` records, which derived them when
they were built, and routing decisions are computed once per unique static
instruction (cached on the trace in the ``dva_routes`` annotation); the
dynamic facts — vector length, stride, base address — are integer column
reads.  Register state is flat: the scoreboard
is three lists indexed by :attr:`~repro.isa.registers.Register.id`, and a
value's owner is the integer code of the processor that produced it (``None``
for a register never written, whose read is hidden behind the fetch: every
processor starts at or after cycle 1), so the loop touches no dicts and
hashes no objects.  The decoupling (and
its limits) emerge from the timestamps: the address processor is free to run
ahead of the vector processor because nothing it does waits for vector
computation — until it meets a full queue, a memory hazard against a queued
store, or a scalar value that the slower side has not produced yet (the
DYFESM lockstep case of paper §5).

The loop runs over row ranges between the trace's kernel invocation marks;
at each mark, :mod:`repro.engine.fastforward` may skip the invocations that
repeat a steady state, with results identical to simulating every row.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.intervals import IntervalRecorder
from repro.dva.address import MemoryPipeline, ring
from repro.dva.fetch import (
    AP,
    QMOV_NONE,
    QMOV_S_LOAD,
    QMOV_S_STORE,
    QMOV_V_LOAD,
    QMOV_V_STORE,
    SP,
    VP,
    queue_targets,
    route_instruction,
)
from repro.dva.result import DecoupledResult
from repro.engine import FU_STARTUP, Scoreboard, fastforward
from repro.isa.instruction import Instruction
from repro.trace.columns import Trace

if TYPE_CHECKING:
    from repro.core.machine import MachineSpec

# Fixed values of the paper's decoupled machine (no spec field covers them;
# editing one changes timing and must bump TIMING_MODEL_VERSION).

#: Queue-move (QMOV) units in the VP, moving whole vector registers between
#: the queues and the register file (paper §4.3).
QMOV_UNITS = 2

#: Cycles before the first element moved by a QMOV is available for chaining.
QMOV_STARTUP = 1

#: Cycles to move a scalar value between processors through the scalar data
#: queues.
CROSS_PROCESSOR_DELAY = 1

#: One routing entry per unique instruction: (primary processor code, QMOV
#: code, instruction-queue ids receiving an entry, register id the QMOV
#: writes or reads — ``-1`` when it has none); see :mod:`repro.dva.fetch`.
RouteEntry = Tuple[int, int, Tuple[int, ...], int]


def _pop_before_push(queue: str, pop: int, push: int) -> SimulationError:
    """The error of an instruction issued before the fetch pushed it."""
    return SimulationError(f"queue {queue!r}: pop at {pop} precedes push at {push}")


def _qmov_register(instruction: Instruction, qmov: int) -> int:
    """Id of the register a QMOV moves into or out of (``-1``: none).

    A vector QMOV without its vector register is malformed; checking here
    raises once per static instruction rather than once per dynamic record.
    """
    if qmov == QMOV_V_LOAD:
        registers = instruction.vector_destinations
        if not registers:
            raise SimulationError(f"vector load without a vector destination: {instruction}")
    elif qmov == QMOV_V_STORE:
        registers = instruction.vector_sources
        if not registers:
            raise SimulationError(
                f"vector store without a vector data register: {instruction}"
            )
    elif qmov == QMOV_S_LOAD:
        registers = instruction.scalar_destinations
    elif qmov == QMOV_S_STORE:
        registers = instruction.scalar_sources
    else:
        registers = ()
    return registers[0].id if registers else -1


def _routing_table(trace: Trace) -> List[RouteEntry]:
    """The fetch processor's decisions for every unique instruction.

    Entries are plain integer codes (not enums or objects) so the main loop
    dispatches on them without hashing.  Cached on the trace's annotation
    dict, so repeated simulations of the same trace (every latency and
    machine variant of a sweep) share it.
    """
    instructions = trace.instructions
    table = trace.annotations.get("dva_routes")
    if isinstance(table, list) and len(table) == len(instructions):
        return table
    table = []
    for instruction in instructions:
        primary, qmov = route_instruction(instruction)
        table.append(
            (primary, qmov, queue_targets(primary, qmov), _qmov_register(instruction, qmov))
        )
    trace.annotations["dva_routes"] = table
    return table


class DecoupledSimulator:
    """Simulates one trace on a ``dva``-family machine at one memory latency.

    The spec supplies lanes, memory ports, the bypass, the queue depths and
    the scalar-cache geometry; everything else is a fixed value of the
    paper's machine.  The simulator is the machine's state, so it runs one
    trace.
    """

    def __init__(self, spec: "MachineSpec", latency: int) -> None:
        if spec.family != "dva":
            raise ConfigurationError(
                f"the decoupled simulator runs 'dva' machines, not {spec.family!r}"
            )
        if latency < 0:
            raise ConfigurationError("memory latency cannot be negative")
        self.spec = spec
        self.scoreboard = Scoreboard()
        self.memory = MemoryPipeline(spec, latency)
        #: Next-free cycle and busy intervals of FU1 and FU2.
        self.fu_free = [0, 0]
        self.fu_busy = [IntervalRecorder("FU1"), IntervalRecorder("FU2")]
        #: Next-free cycle of each QMOV unit.
        self.qmov_free = [0] * QMOV_UNITS

        # Same-step queues as pop-time rings: the pop cycles of each queue's
        # last ``depth`` entries, oldest first (see the module docstring).
        # The zeros stand for the free slots of an empty queue.
        self.apiq = ring(spec.instruction_queue)
        self.vpiq = ring(spec.instruction_queue)
        self.spiq = ring(spec.instruction_queue)
        self.avdq = ring(spec.vector_load_data)
        self.avdq_occupancy = IntervalRecorder("AVDQ")

        # Per-processor issue pointers: the cycle each processor will look at
        # its next instruction.
        self.fp_free = 0
        self.ap_free = 0
        self.vp_free = 0
        self.sp_free = 0
        # The latest completion any issued instruction has reached.
        self.horizon = 0
        self.fetch_stall_cycles = 0

        # Per-processor instruction counters, folded into the result's
        # ``instructions_per_processor`` dict at wind-down (the FP fetches
        # every row).
        self.ap_count = 0
        self.vp_count = 0
        self.sp_count = 0
        self.vector_loads = 0
        self.vector_stores = 0
        #: Rows the fast-forward skipped; ``None`` until :meth:`run`.
        self.skipped_rows: Optional[int] = None

        #: The interval recorders a fast-forward repeats.
        self.timelines = self.fu_busy + self.memory.fabric.port_busy + [self.avdq_occupancy]

    def run(self, trace: Trace) -> DecoupledResult:
        """Fetch, execute and queue-move every traced instruction; return the result.

        :func:`repro.engine.fastforward.consume` walks the trace's invocation
        marks, runs :meth:`issue` between them and skips the invocations a
        steady state makes predictable.
        """
        if self.skipped_rows is not None:
            raise SimulationError("a simulator runs one trace; build a new one")
        self.skipped_rows = fastforward.consume(self, trace)
        return self.finish(trace)

    # -- main loop ------------------------------------------------------------------------

    def issue(self, trace: Trace, first: int, stop: int) -> None:
        """Fetch, execute and queue-move rows ``[first, stop)`` in order.

        One pass over the columns: static facts come from the trace's
        instruction table and the shared routing table, dynamic facts (VL, stride, base
        address) are integer column reads.  The issue rules of all four
        processors run inline on locals — the scoreboard lists, the queue
        rings and the AVDQ residency lists, the functional-unit and QMOV
        free times, the functional units' busy-interval lists, the issue
        pointers, the horizon and the counters — which are written back at
        the end of the range.  Only memory references call out, into the
        :class:`MemoryPipeline`.

        The scoreboard read rule: a value owned by another processor arrives
        :data:`CROSS_PROCESSOR_DELAY` cycles after it is fully written (it
        travels through the scalar data queues); a local read by a chaining
        consumer (the VP) may start at the producer's chain start; any other
        read waits for the value to be fully written.

        The unit picks: the least-loaded unit, the first one winning ties,
        except that an instruction needing FU2 always takes FU2.
        """
        instructions = trace.instructions
        routes = _routing_table(trace)
        insn = trace.insn
        lengths = trace.vl
        strides = trace.stride
        addresses = trace.addr

        lanes = self.spec.lanes
        cross_delay = CROSS_PROCESSOR_DELAY
        scoreboard = self.scoreboard
        ready_at = scoreboard.ready
        chain_at = scoreboard.chain_start
        owner_of = scoreboard.owner

        # Indexed by the routing table's integer queue ids.
        iqs = (self.apiq, self.vpiq, self.spiq)
        apiq_issue = self.apiq.append
        vpiq_issue = self.vpiq.append
        spiq_issue = self.spiq.append

        fu1_free, fu2_free = self.fu_free
        fu1, fu2 = self.fu_busy
        fu1_start, fu1_end = fu1.starts.append, fu1.ends.append
        fu2_start, fu2_end = fu2.starts.append, fu2.ends.append
        qmov_free = self.qmov_free

        avdq = self.avdq
        avdq_enter = self.avdq_occupancy.starts.append
        avdq_leave = self.avdq_occupancy.ends.append
        memory = self.memory

        fp_free = self.fp_free
        ap_free = self.ap_free
        vp_free = self.vp_free
        sp_free = self.sp_free
        horizon = self.horizon
        fetch_stall = 0
        ap_count = vp_count = sp_count = 0
        vector_loads = vector_stores = 0

        for index in range(first, stop):
            table_index = insn[index]
            instruction = instructions[table_index]
            primary, qmov, targets, qmov_register = routes[table_index]

            # Fetch: translate and distribute.  The push cycle is the first
            # cycle every target queue has a free slot, i.e. the issue cycle
            # of the entry ``iq`` places back; each entry is ready one cycle
            # later, when the fetch processor moves on.
            push_time = fp_free
            for queue_id in targets:
                released = iqs[queue_id][0]
                if released > push_time:
                    push_time = released
            fetch_stall += push_time - fp_free
            fp_free = push_time + 1
            if fp_free > horizon:
                horizon = fp_free

            if primary == AP:
                # The AP only waits for scalar operands (addresses, lengths);
                # the data registers of vector accesses belong to the VP and
                # travel through the queues instead.
                ap_count += 1
                start = ap_free if ap_free > fp_free else fp_free
                for register in instruction.scalar_source_ids:
                    operand = ready_at[register]
                    if owner_of[register] != AP:
                        operand += cross_delay
                    if operand > start:
                        start = operand
                if qmov == QMOV_V_LOAD:
                    vector_loads += 1
                    # The load waits for a free AVDQ slot for its data.
                    if avdq[0] > start:
                        start = avdq[0]
                    load_ready = memory.issue_vector_load(
                        addresses[index], lengths[index], strides[index],
                        instruction.is_indexed, start,
                    )
                    load_push = start
                    avdq_enter(start)
                    if load_ready > horizon:
                        horizon = load_ready
                    ap_free = start + 1
                elif qmov == QMOV_V_STORE:
                    vector_stores += 1
                    pushed = memory.enqueue_vector_store(
                        addresses[index], lengths[index], strides[index],
                        instruction.is_indexed, start,
                    )
                    ap_free = (pushed if pushed > start else start) + 1
                elif qmov == QMOV_S_LOAD:
                    load_ready = memory.issue_scalar_load(addresses[index], start)
                    if load_ready > horizon:
                        horizon = load_ready
                    ap_free = start + 1
                elif qmov == QMOV_S_STORE:
                    pushed = memory.enqueue_scalar_store(addresses[index], start)
                    ap_free = (pushed if pushed > start else start) + 1
                else:
                    # Address arithmetic and AP-resolved branches take one cycle.
                    ap_free = start + 1
                    for register in instruction.destination_ids:
                        ready_at[register] = ap_free
                        chain_at[register] = None
                        owner_of[register] = AP
                if start < push_time:
                    raise _pop_before_push("APIQ", start, push_time)
                apiq_issue(start)
                if ap_free > horizon:
                    horizon = ap_free
            elif primary == VP:
                vp_count += 1
                start = vp_free if vp_free > fp_free else fp_free
                for register in instruction.data_source_ids:
                    if owner_of[register] != VP:
                        operand = ready_at[register] + cross_delay
                    else:
                        operand = chain_at[register]
                        if operand is None:
                            operand = ready_at[register]
                    if operand > start:
                        start = operand
                # occupancy_cycles(VL, lanes), inlined.
                busy = lengths[index]
                busy = -(-busy // lanes) if busy > 1 else 1
                if instruction.requires_fu2 or fu2_free < fu1_free:
                    if fu2_free > start:
                        start = fu2_free
                    fu2_free = start + busy
                    fu2_start(start)
                    fu2_end(fu2_free)
                else:
                    if fu1_free > start:
                        start = fu1_free
                    fu1_free = start + busy
                    fu1_start(start)
                    fu1_end(fu1_free)
                if start < push_time:
                    raise _pop_before_push("VPIQ", start, push_time)
                vpiq_issue(start)
                vp_free = start + 1
                chain = start + FU_STARTUP
                completion = chain + busy
                for register, is_vector in instruction.destination_id_flags:
                    ready_at[register] = completion
                    chain_at[register] = chain if is_vector else None
                    owner_of[register] = VP
                if completion > horizon:
                    horizon = completion
            elif primary == SP:
                sp_count += 1
                start = sp_free if sp_free > fp_free else fp_free
                for register in instruction.source_ids:
                    operand = ready_at[register]
                    if owner_of[register] != SP:
                        operand += cross_delay
                    if operand > start:
                        start = operand
                if start < push_time:
                    raise _pop_before_push("SPIQ", start, push_time)
                spiq_issue(start)
                sp_free = start + 1
                for register in instruction.destination_ids:
                    ready_at[register] = sp_free
                    chain_at[register] = None
                    owner_of[register] = SP
                if sp_free > horizon:
                    horizon = sp_free
            # FP: consumed during translation, nothing further.

            if qmov == QMOV_NONE:
                continue
            if qmov == QMOV_V_LOAD:
                vp_count += 1
                # The AVDQ's head entry is this step's load.
                start = vp_free if vp_free > fp_free else fp_free
                if load_ready > start:
                    start = load_ready
                # A QMOV unit moves one element per cycle.
                length = lengths[index]
                if length < 1:
                    length = 1
                unit = qmov_free.index(min(qmov_free))
                if qmov_free[unit] > start:
                    start = qmov_free[unit]
                end = start + length
                qmov_free[unit] = end
                if start < push_time:
                    raise _pop_before_push("VPIQ", start, push_time)
                vpiq_issue(start)
                vp_free = start + 1
                if end < load_push:
                    raise _pop_before_push("AVDQ", end, load_push)
                avdq.append(end)
                avdq_leave(end)
                chain = start + QMOV_STARTUP
                completion = chain + length
                ready_at[qmov_register] = completion
                chain_at[qmov_register] = chain
                owner_of[qmov_register] = VP
                if completion > horizon:
                    horizon = completion
            elif qmov == QMOV_V_STORE:
                vp_count += 1
                start = vp_free if vp_free > fp_free else fp_free
                if owner_of[qmov_register] != VP:
                    operand = ready_at[qmov_register] + cross_delay
                else:
                    operand = chain_at[qmov_register]
                    if operand is None:
                        operand = ready_at[qmov_register]
                if operand > start:
                    start = operand
                slot = memory.vector_data_slot()
                if slot > start:
                    start = slot
                # A QMOV unit moves one element per cycle.
                length = lengths[index]
                if length < 1:
                    length = 1
                unit = qmov_free.index(min(qmov_free))
                if qmov_free[unit] > start:
                    start = qmov_free[unit]
                data_ready = start + length
                qmov_free[unit] = data_ready
                if start < push_time:
                    raise _pop_before_push("VPIQ", start, push_time)
                vpiq_issue(start)
                vp_free = start + 1
                memory.attach_store_data(data_ready)
                if data_ready > horizon:
                    horizon = data_ready
            elif qmov == QMOV_S_LOAD:
                sp_count += 1
                start = sp_free if sp_free > fp_free else fp_free
                if load_ready > start:
                    start = load_ready
                if start < push_time:
                    raise _pop_before_push("SPIQ", start, push_time)
                spiq_issue(start)
                sp_free = start + 1
                if qmov_register >= 0:
                    ready_at[qmov_register] = sp_free
                    chain_at[qmov_register] = None
                    owner_of[qmov_register] = SP
                if sp_free > horizon:
                    horizon = sp_free
            else:
                sp_count += 1
                start = sp_free if sp_free > fp_free else fp_free
                if qmov_register >= 0:
                    operand = ready_at[qmov_register]
                    if owner_of[qmov_register] != SP:
                        operand += cross_delay
                    if operand > start:
                        start = operand
                if start < push_time:
                    raise _pop_before_push("SPIQ", start, push_time)
                spiq_issue(start)
                sp_free = start + 1
                memory.attach_store_data(sp_free)
                if sp_free > horizon:
                    horizon = sp_free

        self.fu_free[:] = (fu1_free, fu2_free)
        self.fp_free = fp_free
        self.ap_free = ap_free
        self.vp_free = vp_free
        self.sp_free = sp_free
        self.horizon = horizon
        self.fetch_stall_cycles += fetch_stall
        self.ap_count += ap_count
        self.vp_count += vp_count
        self.sp_count += sp_count
        self.vector_loads += vector_loads
        self.vector_stores += vector_stores

    # -- fast-forward ---------------------------------------------------------------------

    def fingerprint(self) -> tuple:
        """The loop's state at a mark, relative to the horizon (see fastforward).

        Every processor starts an instruction no earlier than the fetch
        pointer, and the AP no earlier than its own pointer, so: registers
        and instruction-queue entries older than the fetch pointer are
        stale, and so are AVDQ entries older than the AP's floor.  The
        functional-unit and QMOV free times decide the unit picks, so they
        must all shift.
        """
        origin = self.horizon
        fetch = self.fp_free
        address = max(self.ap_free, fetch)
        relative = fastforward.relative
        return (
            fetch - origin,
            address - origin,
            max(self.vp_free, fetch) - origin,
            max(self.sp_free, fetch) - origin,
            self.scoreboard.relative(origin, fetch),
            relative(self.apiq, origin, fetch),
            relative(self.vpiq, origin, fetch),
            relative(self.spiq, origin, fetch),
            relative(self.avdq, origin, address),
            tuple(free - origin for free in self.fu_free),
            tuple(free - origin for free in self.qmov_free),
            self.memory.fingerprint(origin, fetch, address),
        )

    def counters(self) -> List[Tuple[object, str]]:
        """The additive counters a fast-forward adds up, as (object, attribute)."""
        memory = self.memory
        return [
            (self, "fetch_stall_cycles"),
            (self, "ap_count"),
            (self, "vp_count"),
            (self, "sp_count"),
            (self, "vector_loads"),
            (self, "vector_stores"),
            (memory, "bypassed_loads"),
            (memory, "bypassed_bytes"),
            (memory, "disambiguation_stalls"),
            (memory.fabric, "traffic_bytes"),
            (memory.fabric.cache, "hits"),
            (memory.fabric.cache, "misses"),
        ]

    def shift(self, cycles: int) -> None:
        self.horizon += cycles
        self.fp_free += cycles
        self.ap_free += cycles
        self.vp_free += cycles
        self.sp_free += cycles
        self.scoreboard.shift(cycles)
        for name in ("apiq", "vpiq", "spiq", "avdq"):
            ring = getattr(self, name)
            setattr(self, name, deque([time + cycles for time in ring], ring.maxlen))
        self.fu_free[:] = [free + cycles for free in self.fu_free]
        self.qmov_free[:] = [free + cycles for free in self.qmov_free]
        self.memory.shift(cycles)

    # -- wind-down ------------------------------------------------------------------------------------------

    def finish(self, trace: Trace) -> DecoupledResult:
        memory = self.memory
        fabric = memory.fabric
        drain_end = memory.drain_all()
        total_cycles = max(
            self.horizon,
            self.fp_free,
            self.ap_free,
            self.vp_free,
            self.sp_free,
            fabric.port_quiet(),
            memory.bypass_free,
            drain_end,
        )
        if not len(trace):
            total_cycles = 0

        counts = {
            "FP": len(trace),
            "AP": self.ap_count,
            "VP": self.vp_count,
            "SP": self.sp_count,
            "vector_loads": self.vector_loads,
            "vector_stores": self.vector_stores,
        }
        return DecoupledResult(
            program=trace.name,
            latency=fabric.latency,
            total_cycles=total_cycles,
            instructions=len(trace),
            bypass_enabled=self.spec.bypass,
            fu1_busy=self.fu_busy[0],
            fu2_busy=self.fu_busy[1],
            port_busy=fabric.port_recorder(),
            avdq_occupancy=self.avdq_occupancy,
            instructions_per_processor=counts,
            memory_traffic_bytes=fabric.traffic_bytes,
            bypassed_loads=memory.bypassed_loads,
            bypassed_bytes=memory.bypassed_bytes,
            disambiguation_stalls=memory.disambiguation_stalls,
            fetch_stall_cycles=self.fetch_stall_cycles,
            scalar_cache_hits=fabric.cache.hits,
            scalar_cache_misses=fabric.cache.misses,
            skipped_rows=self.skipped_rows,
        )


def simulate_decoupled(
    trace: Trace,
    latency: int,
    spec: Optional["MachineSpec"] = None,
) -> DecoupledResult:
    """Convenience wrapper: simulate ``trace`` on the DVA at a given latency.

    Without a spec this is the ``dva`` preset (bypass on).
    """
    if spec is None:
        from repro.core.machine import MachineSpec

        spec = MachineSpec(family="dva")
    return DecoupledSimulator(spec, latency).run(trace)
