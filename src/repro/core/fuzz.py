"""Seeded fuzzing of the timing model against oracles that need no second core.

This module generates random (machine, program, latency) cases and checks
each one two ways:

* **Conservation invariants** (:func:`check_invariants`), which hold for any
  correct run whatever its numbers: no unit is busy after the run ends, the
  eight-state breakdown and the AVDQ occupancy histogram partition the run
  exactly, and the instruction counters add up.
* **A frozen snapshot** (``tests/golden/fuzz_cycles.json``, written by
  ``scripts/make_golden.py``) of ``total_cycles`` and the per-family
  counters the golden snapshot pins — or the exact
  :class:`~repro.common.errors.SimulationError` text — for the first cases of
  the default master seed.  A timing change anywhere in the model shows up
  as a snapshot mismatch on some random machine, not just on the paper grid.

Everything here is deterministic in the seed: :func:`case_seed` derives one
case seed per index from a master seed, :func:`generate_case` expands a case
seed into a fully-described :class:`FuzzCase`, and :func:`run_case` runs the
case and reports the first failed check (or ``None``).  The test suite and
the standalone driver ``scripts/fuzz.py`` both build on these functions, so
a failure always comes with a one-line repro command.

Each case describes its machine as a :class:`~repro.core.machine.MachineSpec`
— the one machine description every sweep uses — and drives the family
simulator directly, so the checks see the family's own result object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.common.errors import SimulationError
from repro.core.machine import MachineSpec
from repro.workloads import synthetic
from repro.workloads.kernel import KernelSchedule
from repro.workloads.program_model import ProgramModel, ProgramTargets

#: Synthetic kernel factories the fuzzer draws programs from.
KERNELS: Tuple[str, ...] = (
    "daxpy",
    "stream_triad",
    "stencil3",
    "compute_bound",
    "reduction",
    "spill_heavy",
    "gather_scatter",
    "strided",
)

#: Memory latencies exercised — the paper's extremes plus two interior points.
LATENCIES: Tuple[int, ...] = (1, 7, 50, 100)

#: Default master seed; the snapshot and the test suite use it so failures
#: are reproducible across machines.
DEFAULT_SEED = 20260808

#: Cases of the default master seed the frozen snapshot covers.
SNAPSHOT_CASES = 200

#: Result counters pinned per family beyond ``total_cycles`` — shared by the
#: golden paper-grid snapshot and the fuzz snapshot.
COMMON_KEYS: Tuple[str, ...] = (
    "instructions",
    "memory_traffic_bytes",
    "scalar_cache_hits",
    "scalar_cache_misses",
)
FAMILY_KEYS: Dict[str, Tuple[str, ...]] = {
    "ref": ("dispatch_stall_cycles",),
    "dva": ("fetch_stall_cycles", "disambiguation_stalls", "bypassed_loads"),
}


def snapshot_keys(family: str) -> Tuple[str, ...]:
    """The result fields a snapshot pins for one simulator family."""
    return ("total_cycles",) + COMMON_KEYS + FAMILY_KEYS[family]


def case_seed(master: int, index: int) -> int:
    """The per-case seed derived from a master seed and a case index.

    A multiplicative hash keeps neighbouring indices uncorrelated while
    staying trivially recomputable from the repro command's two integers.
    """
    return (master * 1_000_003 + index) & 0xFFFFFFFF


@dataclass(frozen=True)
class FuzzCase:
    """One fully-described fuzz case: a synthetic program, a latency, a machine.

    Every field that shapes timing is explicit, so ``describe()`` is a
    complete record of what failed.
    """

    seed: int
    kernel: str
    elements: int
    max_vector_length: int
    invocations: int
    latency: int
    spec: MachineSpec

    @property
    def family(self) -> str:
        return self.spec.family

    def describe(self) -> str:
        return (
            f"seed={self.seed} kernel={self.kernel} elements={self.elements} "
            f"mvl={self.max_vector_length} invocations={self.invocations} "
            f"latency={self.latency} machine={self.spec.to_string()}"
        )

    def build_trace(self):
        """The dynamic instruction trace this case simulates."""
        factory = getattr(synthetic, self.kernel)
        kernel = factory(self.elements, max_vector_length=self.max_vector_length)
        model = ProgramModel(
            name=f"fuzz-{self.seed}",
            description="fuzz case",
            schedules=(KernelSchedule(kernel, self.invocations),),
            targets=ProgramTargets(),
            prologue_scalar_instructions=8,
        )
        return model.build_trace(scale=1.0)

    def simulate(self, trace=None):
        """Run this case; returns ``(result, error_message)``.

        ``result`` is the family's result object (``None`` when the run
        raised a :class:`SimulationError`, whose text is then the message).
        """
        if trace is None:
            trace = self.build_trace()
        if self.family == "ref":
            from repro.refarch.simulator import ReferenceSimulator as simulator_class
        else:
            from repro.dva.simulator import DecoupledSimulator as simulator_class
        simulator = simulator_class(self.spec, self.latency)
        try:
            return simulator.run(trace), None
        except SimulationError as exc:
            return None, str(exc)


def generate_case(seed: int) -> FuzzCase:
    """Expand one case seed into a fully-described :class:`FuzzCase`."""
    rng = random.Random(seed)
    family = rng.choice(("ref", "dva"))
    kernel = rng.choice(KERNELS)
    elements = rng.choice((8, 17, 64, 200))
    max_vector_length = rng.choice((16, 64))
    invocations = rng.choice((1, 2, 3))
    latency = rng.choice(LATENCIES)
    lanes = rng.choice((1, 2, 3, 4))
    ports = rng.choice((1, 2, 3))
    if family == "ref":
        spec = MachineSpec(
            family="ref",
            lanes=lanes,
            memory_ports=ports,
            chaining=rng.choice((False, True)),
        )
    else:
        spec = MachineSpec(
            family="dva",
            lanes=lanes,
            memory_ports=ports,
            bypass=rng.choice((False, True)),
            instruction_queue=rng.choice((1, 2, 4, 16)),
            vector_load_data=rng.choice((1, 2, 4, 256)),
            vector_store_data=rng.choice((1, 2, 4, 16)),
            scalar_store_address=rng.choice((1, 2, 16)),
        )
    return FuzzCase(seed, kernel, elements, max_vector_length, invocations, latency, spec)


def check_invariants(case: FuzzCase, result, trace_length: int) -> Optional[str]:
    """The first violated conservation invariant of one run, or ``None``."""
    total = result.total_cycles
    for name, recorder in (
        ("FU1", result.fu1_busy),
        ("FU2", result.fu2_busy),
        ("port", result.port_busy),
    ):
        end = recorder.last_end()
        if end > total:
            return f"{name} busy until {end}, after total_cycles {total}"
    states = sum(result.state_breakdown().values())
    if states != total:
        return f"state breakdown sums to {states}, not total_cycles {total}"
    if case.family == "ref":
        if not 0 <= result.vector_instructions <= result.instructions:
            return (
                f"vector instructions {result.vector_instructions} outside "
                f"[0, instructions {result.instructions}]"
            )
        return None
    # The AVDQ peak and mean are read off the [0, total_cycles) histogram,
    # which sees every residency only if each one ends by then.
    leave = result.avdq_occupancy.last_end()
    if leave > total:
        return f"AVDQ residency ends at {leave}, after total_cycles {total}"
    avdq = sum(result.avdq_histogram().values())
    if avdq != total:
        return f"AVDQ histogram sums to {avdq}, not total_cycles {total}"
    if result.instructions != trace_length:
        return f"instructions {result.instructions} != trace length {trace_length}"
    loads = result.instructions_per_processor["vector_loads"]
    if result.bypassed_loads > loads:
        return f"bypassed loads {result.bypassed_loads} > vector loads {loads}"
    return None


def snapshot_cell(case: FuzzCase, result, error: Optional[str]) -> Dict[str, object]:
    """What the frozen snapshot records for one run."""
    if error is not None:
        return {"error": error}
    payload = result.to_json()
    return {name: payload[name] for name in snapshot_keys(case.family)}


def run_case(
    case: FuzzCase, expected: Optional[Mapping[str, object]] = None
) -> Optional[str]:
    """Run one case; ``None`` if every check passes, else a one-line diagnosis.

    The invariants run on every case that simulates without error.
    ``expected`` is the case's frozen snapshot cell, when the snapshot
    covers it; the run must then reproduce it exactly — counters or error
    text alike.
    """
    trace = case.build_trace()
    result, error = case.simulate(trace)
    problem = None
    if result is not None:
        problem = check_invariants(case, result, len(trace))
    if problem is None and expected is not None:
        actual = snapshot_cell(case, result, error)
        if actual != dict(expected):
            fields = sorted(
                name
                for name in set(actual) | set(expected)
                if actual.get(name) != expected.get(name)
            )
            problem = (
                f"snapshot mismatch in {fields}: "
                f"expected {[expected.get(name) for name in fields]} "
                f"got {[actual.get(name) for name in fields]}"
            )
    if problem is None:
        return None
    return f"{problem} ({case.describe()})"


def snapshot_cells(
    master: int = DEFAULT_SEED, cases: int = SNAPSHOT_CASES
) -> Dict[str, object]:
    """The snapshot cells of the first ``cases`` cases, keyed by case seed."""
    cells: Dict[str, object] = {}
    for index in range(cases):
        case = generate_case(case_seed(master, index))
        result, error = case.simulate()
        cells[str(case.seed)] = snapshot_cell(case, result, error)
    return cells


def repro_command(master: int, index: int) -> str:
    """The minimized one-case repro command printed on a failure."""
    return f"PYTHONPATH=src python scripts/fuzz.py --seed {master} --case {index}"


__all__ = [
    "DEFAULT_SEED",
    "FuzzCase",
    "KERNELS",
    "LATENCIES",
    "SNAPSHOT_CASES",
    "case_seed",
    "check_invariants",
    "generate_case",
    "repro_command",
    "run_case",
    "snapshot_cell",
    "snapshot_cells",
    "snapshot_keys",
]
