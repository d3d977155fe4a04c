"""One-pass timing simulator of the decoupled vector architecture.

The simulator performs a single pass over the dynamic trace in program order.
For every traced instruction it advances, in this order, the fetch processor
(which translates and distributes the instruction), the processor that
executes the instruction itself, and the processor that executes the hidden
QMOV companion the fetch processor generated for it.  Because every processor
works through its stream in order and all queues are FIFO, the blocking
behaviour of the bounded queues reduces to timestamp arithmetic handled by
:class:`~repro.dva.queues.TimedQueue`, and a single pass reproduces the timing
a cycle-stepped simulation would give.

The timing machinery — the owner-aware register scoreboard, the per-processor
issue pointers, the functional-unit/QMOV/port pools, fetch-stall accounting
and the completion horizon — is the shared :mod:`repro.engine` kernel; this
module contributes only the issue rules of the four processors.  The main
loop runs over the trace's columns: routing decisions and operand lists are
precomputed per unique static instruction (cached on the trace via
:meth:`~repro.trace.columns.ColumnarTrace.instruction_infos` and the
``dva_routes`` annotation), and the dynamic facts — vector length, stride,
base address — are integer column reads held in locals.  The decoupling (and
its limits) emerge from the timestamps: the address processor is free to run
ahead of the vector processor because nothing it does waits for vector
computation — until it meets a full queue, a memory hazard against a queued
store, or a scalar value that the slower side has not produced yet (the
DYFESM lockstep case of paper §5).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.dva.address import MemoryPipeline
from repro.dva.config import DecoupledConfig
from repro.dva.fetch import Processor, route_instruction
from repro.dva.queues import TimedQueue
from repro.dva.result import DecoupledResult
from repro.dva.vector import VectorExecutionResources
from repro.engine import TimingCore
from repro.isa.opcodes import Opcode
from repro.isa.registers import Register, RegisterClass
from repro.memory.model import MemoryModel
from repro.trace.columns import ColumnarTrace, InstructionInfo
from repro.trace.record import Trace

#: Queue-move dispatch codes precomputed per unique instruction.
_QMOV_NONE = 0
_QMOV_V_LOAD = 1
_QMOV_V_STORE = 2
_QMOV_S_LOAD = 3
_QMOV_S_STORE = 4

_QMOV_CODES = {
    None: _QMOV_NONE,
    Opcode.QMOV_V_LOAD: _QMOV_V_LOAD,
    Opcode.QMOV_V_STORE: _QMOV_V_STORE,
    Opcode.QMOV_S_LOAD: _QMOV_S_LOAD,
    Opcode.QMOV_S_STORE: _QMOV_S_STORE,
}

#: Primary-processor dispatch codes (also the instruction-queue ids of the
#: three queue-backed processors, in ``(APIQ, VPIQ, SPIQ)`` order).
_PRIMARY_ADDRESS = 0
_PRIMARY_VECTOR = 1
_PRIMARY_SCALAR = 2
_PRIMARY_FETCH = 3

_PRIMARY_CODES = {
    Processor.ADDRESS: _PRIMARY_ADDRESS,
    Processor.VECTOR: _PRIMARY_VECTOR,
    Processor.SCALAR: _PRIMARY_SCALAR,
    Processor.FETCH: _PRIMARY_FETCH,
}

#: One routing entry per unique instruction: (primary dispatch code, QMOV
#: dispatch code, instruction-queue ids receiving an entry).
RouteEntry = Tuple[int, int, Tuple[int, ...]]


def _routing_table(columns: ColumnarTrace) -> List[RouteEntry]:
    """The fetch processor's decisions for every unique instruction.

    Entries are plain integer codes (not enums or objects) so the main loop
    dispatches on them without hashing.  Cached on the trace's annotation
    dict, so repeated simulations of the same trace (every latency and
    machine variant of a sweep) share it.
    """
    infos = columns.instruction_infos()
    table = columns.annotations.get("dva_routes")
    if isinstance(table, list) and len(table) == len(infos):
        return table
    table = []
    for info in infos:
        decision = route_instruction(info.instruction)
        table.append(
            (
                _PRIMARY_CODES[decision.primary],
                _QMOV_CODES[decision.queue_move],
                tuple(_PRIMARY_CODES[target] for target in decision.targets()),
            )
        )
    columns.annotations["dva_routes"] = table
    return table


def _default_owner(register: Register) -> Processor:
    if register.register_class is RegisterClass.ADDRESS:
        return Processor.ADDRESS
    if register.register_class is RegisterClass.SCALAR:
        return Processor.SCALAR
    if register.register_class is RegisterClass.VECTOR:
        return Processor.VECTOR
    return Processor.FETCH


class DecoupledSimulator:
    """Simulates one trace on the decoupled vector architecture."""

    def __init__(
        self,
        memory: MemoryModel,
        config: Optional[DecoupledConfig] = None,
    ) -> None:
        self.memory_model = memory
        self.config = config if config is not None else DecoupledConfig()

    def run(self, trace: Trace) -> DecoupledResult:
        state = _DecoupledState(self.memory_model, self.config)
        state.consume(trace)
        return state.finish(trace)


def simulate_decoupled(
    trace: Trace,
    latency: int,
    config: Optional[DecoupledConfig] = None,
) -> DecoupledResult:
    """Convenience wrapper: simulate ``trace`` on the DVA at a given latency."""
    simulator = DecoupledSimulator(MemoryModel(latency=latency), config=config)
    return simulator.run(trace)


class _DecoupledState:
    """Issue rules of the four decoupled processors over a :class:`TimingCore`."""

    def __init__(self, memory: MemoryModel, config: DecoupledConfig) -> None:
        self.config = config
        self.core = TimingCore(default_owner=_default_owner)
        self.memory = MemoryPipeline(memory, config)
        self.resources = VectorExecutionResources(
            qmov_unit_count=config.qmov_units, lanes=config.lanes
        )

        queue_size = config.queues.instruction_queue
        self.apiq = TimedQueue("APIQ", queue_size)
        self.vpiq = TimedQueue("VPIQ", queue_size)
        self.spiq = TimedQueue("SPIQ", queue_size)
        # Indexed by the routing table's integer queue ids.
        self._iqs = (self.apiq, self.vpiq, self.spiq)

        # Per-processor issue pointers: each processor is a one-unit pool
        # whose free time is the cycle it will look at its next instruction
        # (no busy intervals are recorded — nothing reads them).
        self.fp = self.core.add_pool("FP", record=False)
        self.ap = self.core.add_pool("AP", record=False)
        self.vp = self.core.add_pool("VP", record=False)
        self.sp = self.core.add_pool("SP", record=False)

        # Per-processor instruction counters; folded into the result's
        # ``instructions_per_processor`` dict at wind-down (plain int
        # attributes keep the hot loop free of dict writes).
        self.fp_count = 0
        self.ap_count = 0
        self.vp_count = 0
        self.sp_count = 0
        self.vector_loads = 0
        self.vector_stores = 0

    # -- register bookkeeping ----------------------------------------------------------

    def _operand_time(
        self, register: Register, consumer: Processor, allow_chain: bool = False
    ) -> int:
        """Cycle at which ``consumer`` may use ``register``.

        Values produced on another processor travel through the (large) scalar
        data queues and arrive ``cross_processor_delay`` cycles after they were
        produced; chaining is only possible inside the vector processor.
        """
        return self.core.scoreboard.read(
            register,
            consumer=consumer,
            allow_chain=allow_chain,
            cross_delay=self.config.cross_processor_delay,
        )

    def _set_register(
        self,
        register: Register,
        owner: Processor,
        ready: int,
        chain_start: Optional[int] = None,
    ) -> None:
        self.core.scoreboard.write(
            register, ready, chain_start=chain_start, owner=owner
        )

    # -- main loop ------------------------------------------------------------------------

    def consume(self, trace: Trace) -> None:
        """Fetch, execute and queue-move every traced instruction in order.

        One pass over the columns: static facts come from the shared
        instruction-info and routing tables, dynamic facts (VL, stride, base
        address) are integer column reads held in locals.
        """
        columns = trace.columns
        infos = columns.instruction_infos()
        routes = _routing_table(columns)
        insn = columns.insn
        lengths = columns.vl
        strides = columns.stride
        addresses = columns.addr

        core = self.core
        iqs = self._iqs
        fp_free = self.fp.free
        fetch_stall = core.stalls.stall
        address_execute = self._address_execute
        vector_compute = self._vector_compute
        scalar_execute = self._scalar_execute

        vector_loads = 0
        vector_stores = 0

        for index in range(len(insn)):
            table_index = insn[index]
            info = infos[table_index]
            primary, qmov, targets = routes[table_index]

            # Fetch: translate and distribute.  The push cycle is the first
            # cycle every target queue can accept an entry; the entry indices
            # are remembered for the executing processors (primary first,
            # QMOV second — push order matters for queue state).
            push_time = requested = fp_free[0]
            for queue_id in targets:
                earliest = iqs[queue_id].earliest_push(requested)
                if earliest > push_time:
                    push_time = earliest
            if push_time > requested:
                fetch_stall("fetch", push_time - requested)
            primary_entry = qmov_entry = -1
            for queue_id in targets:
                entry = iqs[queue_id].push_at(push_time, push_time + 1)
                if primary_entry < 0:
                    primary_entry = entry
                else:
                    qmov_entry = entry
            fp_free[0] = push_time + 1
            if push_time + 1 > core.horizon:
                core.horizon = push_time + 1

            if primary == _PRIMARY_ADDRESS:
                if info.is_vector_memory:
                    if info.is_load:
                        vector_loads += 1
                    else:
                        vector_stores += 1
                address_execute(
                    info, index, lengths[index], strides[index],
                    addresses[index], primary_entry,
                )
            elif primary == _PRIMARY_VECTOR:
                vector_compute(info, lengths[index], primary_entry)
            elif primary == _PRIMARY_SCALAR:
                scalar_execute(info, primary_entry)
            # _PRIMARY_FETCH: consumed during translation, nothing further.

            if qmov == _QMOV_NONE:
                continue
            if qmov == _QMOV_V_LOAD:
                self._vector_qmov_load(info, lengths[index], qmov_entry)
            elif qmov == _QMOV_V_STORE:
                self._vector_qmov_store(info, index, lengths[index], qmov_entry)
            elif qmov == _QMOV_S_LOAD:
                self._scalar_qmov_load(info, qmov_entry)
            else:
                self._scalar_qmov_store(info, index, qmov_entry)

        self.fp_count += len(insn)
        self.vector_loads += vector_loads
        self.vector_stores += vector_stores

    # -- address processor --------------------------------------------------------------------------

    def _address_execute(
        self,
        info: InstructionInfo,
        index: int,
        vector_length: int,
        stride_elements: int,
        address: int,
        entry_index: int,
    ) -> None:
        self.ap_count += 1
        ready = self.apiq.ready_times[entry_index]
        free = self.ap.free[0]
        start = free if free > ready else ready
        # The AP only waits for scalar operands (addresses, lengths); the data
        # registers of vector accesses belong to the VP and travel through the
        # queues instead.
        for register in info.scalar_sources:
            operand = self._operand_time(register, Processor.ADDRESS)
            if operand > start:
                start = operand

        memory = self.memory
        if info.is_vector_memory:
            if info.is_load:
                slot = memory.reserve_load_data_slot(start)
                if slot > start:
                    start = slot
                outcome = memory.issue_vector_load(
                    address, vector_length, stride_elements, info.is_indexed, start
                )
                memory.avdq.push(start, ready=outcome.data_ready)
                self.core.bump(outcome.data_ready)
                finish = start + 1
            else:
                push_time = memory.enqueue_vector_store(
                    index, address, vector_length, stride_elements,
                    info.is_indexed, start,
                )
                finish = max(start, push_time) + 1
        elif info.is_scalar_memory:
            if info.is_load:
                data_ready = memory.issue_scalar_load(address, start)
                memory.asdq.push(start, ready=data_ready)
                self.core.bump(data_ready)
                finish = start + 1
            else:
                push_time = memory.enqueue_scalar_store(index, address, start)
                finish = max(start, push_time) + 1
        else:
            # Address arithmetic and AP-resolved branches take one cycle.
            finish = start + 1
            for register in info.destinations:
                self._set_register(register, Processor.ADDRESS, finish)

        self.apiq.pop(start)
        self.ap.occupy(start, finish)
        self.core.bump(finish)

    # -- vector processor -----------------------------------------------------------------------------

    def _vector_compute(
        self, info: InstructionInfo, vector_length: int, entry_index: int
    ) -> None:
        self.vp_count += 1
        ready = self.vpiq.ready_times[entry_index]
        free = self.vp.free[0]
        start = free if free > ready else ready
        for register in info.data_sources:
            operand = self._operand_time(register, Processor.VECTOR, allow_chain=True)
            if operand > start:
                start = operand

        length = vector_length if vector_length > 1 else 1
        start, busy = self.resources.acquire_functional_unit(
            start, length, info.requires_fu2
        )
        self.vpiq.pop(start)
        self.vp.occupy(start, start + 1)

        startup = self.config.functional_unit_startup
        completion = start + startup + busy
        for register, is_vector in info.destination_flags:
            chain = start + startup if is_vector else None
            self._set_register(register, Processor.VECTOR, completion, chain)
        self.core.bump(completion)

    def _vector_qmov_load(
        self, info: InstructionInfo, vector_length: int, entry_index: int
    ) -> None:
        self.vp_count += 1
        ready = self.vpiq.ready_times[entry_index]
        free = self.vp.free[0]
        start = free if free > ready else ready
        front_ready = self.memory.avdq.front_ready()
        if front_ready > start:
            start = front_ready

        length = vector_length if vector_length > 1 else 1
        start, _unit = self.resources.acquire_qmov_unit(start, length)
        self.vpiq.pop(start)
        self.vp.occupy(start, start + 1)

        end = start + length
        self.memory.avdq.pop(end)
        startup = self.config.queue_move_startup
        completion = start + startup + length
        destinations = info.vector_destinations
        if not destinations:
            raise SimulationError(
                f"vector load without a vector destination: {info.instruction}"
            )
        self._set_register(
            destinations[0], Processor.VECTOR, completion, chain_start=start + startup
        )
        self.core.bump(completion)

    def _vector_qmov_store(
        self, info: InstructionInfo, index: int, vector_length: int, entry_index: int
    ) -> None:
        self.vp_count += 1
        ready = self.vpiq.ready_times[entry_index]
        free = self.vp.free[0]
        start = free if free > ready else ready
        sources = info.vector_sources
        if not sources:
            raise SimulationError(
                f"vector store without a vector data register: {info.instruction}"
            )
        operand = self._operand_time(sources[0], Processor.VECTOR, allow_chain=True)
        if operand > start:
            start = operand
        slot = self.memory.reserve_vector_store_data_slot(start)
        if slot > start:
            start = slot

        length = vector_length if vector_length > 1 else 1
        start, _unit = self.resources.acquire_qmov_unit(start, length)
        self.vpiq.pop(start)
        self.vp.occupy(start, start + 1)

        data_ready = start + length
        self.memory.attach_vector_store_data(index, push_time=start, data_ready=data_ready)
        self.core.bump(data_ready)

    # -- scalar processor ----------------------------------------------------------------------------------

    def _scalar_execute(self, info: InstructionInfo, entry_index: int) -> None:
        self.sp_count += 1
        ready = self.spiq.ready_times[entry_index]
        free = self.sp.free[0]
        start = free if free > ready else ready
        for register in info.sources:
            operand = self._operand_time(register, Processor.SCALAR)
            if operand > start:
                start = operand

        self.spiq.pop(start)
        self.sp.occupy(start, start + 1)
        completion = start + 1
        for register in info.destinations:
            self._set_register(register, Processor.SCALAR, completion)
        self.core.bump(completion)

    def _scalar_qmov_load(self, info: InstructionInfo, entry_index: int) -> None:
        self.sp_count += 1
        ready = self.spiq.ready_times[entry_index]
        front_ready = self.memory.asdq.front_ready()
        start = max(self.sp.free[0], ready, front_ready)

        self.spiq.pop(start)
        self.sp.occupy(start, start + 1)
        self.memory.asdq.pop(start + 1)
        completion = start + 1
        destinations = info.scalar_destinations
        if destinations:
            self._set_register(destinations[0], Processor.SCALAR, completion)
        self.core.bump(completion)

    def _scalar_qmov_store(
        self, info: InstructionInfo, index: int, entry_index: int
    ) -> None:
        self.sp_count += 1
        ready = self.spiq.ready_times[entry_index]
        free = self.sp.free[0]
        start = free if free > ready else ready
        sources = info.scalar_sources
        if sources:
            operand = self._operand_time(sources[0], Processor.SCALAR)
            if operand > start:
                start = operand

        self.spiq.pop(start)
        self.sp.occupy(start, start + 1)
        self.memory.attach_scalar_store_data(index, push_time=start, data_ready=start + 1)
        self.core.bump(start + 1)

    # -- wind-down ------------------------------------------------------------------------------------------

    def finish(self, trace: Trace) -> DecoupledResult:
        drain_end = self.memory.drain_all()
        total_cycles = self.core.finish_time(
            self.fp.free_time(),
            self.ap.free_time(),
            self.vp.free_time(),
            self.sp.free_time(),
            self.memory.port_quiet,
            self.memory.bypass_free,
            drain_end,
        )
        if not len(trace):
            total_cycles = 0

        instruction_queue_occupancy = {
            "APIQ": self.apiq.occupancy_timeline(horizon=total_cycles),
            "VPIQ": self.vpiq.occupancy_timeline(horizon=total_cycles),
            "SPIQ": self.spiq.occupancy_timeline(horizon=total_cycles),
        }
        counts = {
            "FP": self.fp_count,
            "AP": self.ap_count,
            "VP": self.vp_count,
            "SP": self.sp_count,
            "vector_loads": self.vector_loads,
            "vector_stores": self.vector_stores,
        }
        return DecoupledResult(
            program=trace.name,
            latency=self.memory.memory.latency,
            total_cycles=total_cycles,
            instructions=len(trace),
            bypass_enabled=self.config.enable_bypass,
            fu1_busy=self.resources.fu1,
            fu2_busy=self.resources.fu2,
            port_busy=self.memory.port,
            qmov_busy=list(self.resources.qmov_units),
            bypass_busy=self.memory.bypass_unit,
            avdq_occupancy=self.memory.avdq.occupancy_timeline("AVDQ", horizon=total_cycles),
            vadq_occupancy=self.memory.vadq.occupancy_timeline("VADQ", horizon=total_cycles),
            instruction_queue_occupancy=instruction_queue_occupancy,
            instructions_per_processor=counts,
            memory_traffic_bytes=self.memory.traffic_bytes,
            bypassed_loads=self.memory.bypassed_loads,
            bypassed_bytes=self.memory.bypassed_bytes,
            disambiguation_stalls=self.memory.disambiguation_stalls,
            fetch_stall_cycles=self.core.stalls.stalls("fetch"),
            scalar_cache_hits=self.memory.cache.hits,
            scalar_cache_misses=self.memory.cache.misses,
        )
