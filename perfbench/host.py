"""Host-side helpers: the environment record, set-up probes, memory, statistics."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.grids import PROGRAMS, ROOT

SRC = ROOT / "src"


def child_env(work_dir: Path) -> Dict[str, str]:
    """Environment for every subprocess: the checkout's sources, a store inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(work_dir / "default-store")
    return env


def cpu_affinity() -> List[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return list(range(os.cpu_count() or 1))


def environment(requested_workers: int, effective_workers: int) -> Dict[str, object]:
    """What a reader needs to judge a row: CPUs, affinity, workers, Python.

    ``workers_short`` flags a run whose pool got fewer workers than it asked
    for, so a one-CPU pool row can never pass for a parallel one.
    """
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": cpu_affinity(),
        "requested_workers": requested_workers,
        "effective_workers": effective_workers,
        "workers_short": effective_workers < requested_workers,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def children(pid: int) -> List[int]:
    """Live processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of ``pid`` plus every live descendant, in MiB.

    Each process's own high-water mark is summed, which can only overstate
    the true simultaneous peak, never understate it.
    """
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        total += _hwm_kb(current)
        pending.extend(children(current))
    return total / 1024.0


#: Run in a fresh interpreter to time set-up: import the CLI, build a runner.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import repro.core.cli
from repro.core.experiment import Runner
t1 = time.perf_counter()
Runner(store=sys.argv[1])
print("ready", t1 - t0, flush=True)
"""


def probe_setup(work_dir: Path) -> Dict[str, float]:
    """One fresh-interpreter set-up: wall until ready, and the import share."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _SETUP_PROBE, str(work_dir / "probe-store")],
        stdout=subprocess.PIPE,
        env=child_env(work_dir),
        cwd=ROOT,
        text=True,
    )
    try:
        line = child.stdout.readline()
        ready = time.perf_counter() - started
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    fields = line.split()
    if child.returncode != 0 or len(fields) != 2 or fields[0] != "ready":
        raise RuntimeError(f"set-up probe failed: {line!r}, exit {child.returncode}")
    return {"setup_s": ready, "import_s": float(fields[1])}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@dataclass
class Context:
    """One benchmark run's inputs and scratch space."""

    seed: int
    seconds: float
    work_dir: Path
    programs: Tuple[str, ...] = PROGRAMS
    min_passes: int = 2
    setup_probes: int = 9
    #: Where a traced run writes the spans of its last traced pass.
    spans_path: Optional[Path] = None

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work_dir))


@dataclass
class Outcome:
    """What a workload hands back to the driver script."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    info: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    table: List[str] = field(default_factory=list)
