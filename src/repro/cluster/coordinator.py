"""The cluster coordinator: manifest out, standing workers in, results assembled.

A :class:`ClusterCoordinator` turns a :class:`~repro.core.experiment.SweepSpec`
into a shared work queue and back into a :class:`~repro.core.experiment.SweepResult`:

* :meth:`~ClusterCoordinator.prepare` plans the grid exactly as the
  in-process :class:`~repro.core.experiment.Runner` does
  (:func:`~repro.core.experiment.plan_sweep`: validate, key, probe the
  store) and publishes the cells the store cannot answer as a manifest;
* :meth:`~ClusterCoordinator.wait` polls the store until every manifest cell
  resolves, firing per-cell progress and watching worker status files for
  reported failures;
* :meth:`~ClusterCoordinator.assemble` returns the full grid in grid order,
  a sweep result golden-identical to a serial run (the store is
  provenance-only by construction);
* :meth:`~ClusterCoordinator.run_distributed` composes the three.  The work
  itself is done by ``repro worker`` processes, started by the user on any
  host that mounts the store directory; the coordinator never starts one.

This module also carries the cluster's two maintenance surfaces:
:func:`cluster_status` (behind ``repro cluster status`` and the service's
``/v1/stats``) and :func:`reap_cluster` (behind ``repro cache gc``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.config import RunConfig
from repro.core.experiment import (
    PlannedCell,
    ProgressCallback,
    SweepResult,
    SweepSpec,
    _ProgressTracker,
    estimate_cell_cost,
    plan_sweep,
)
from repro.store import ResultStore
from repro.cluster.claims import DEFAULT_LEASE_SECONDS, read_claim
from repro.cluster.manifest import (
    ClusterError,
    Manifest,
    ManifestCell,
    claims_dir,
    cluster_root,
    list_sweep_ids,
    load_manifest,
    new_sweep_id,
    remaining_cells,
    workers_dir,
)


@dataclass
class PreparedSweep:
    """One sweep, planned and (if needed) published for workers.

    ``cells`` is the plan in grid order: store hits hold their result from
    the start, manifest cells get theirs once a worker has stored it.
    ``manifest`` is ``None`` when the sweep was fully warm.
    """

    sweep_id: str
    spec: SweepSpec
    cells: List[PlannedCell]
    manifest: Optional[Manifest]

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def unfinished(self) -> int:
        return len(self.manifest.cells) if self.manifest is not None else 0


class ClusterCoordinator:
    """Drives one distributed sweep through a shared store directory."""

    def __init__(
        self,
        store: Union[ResultStore, str, Path],
        poll_seconds: float = 0.05,
    ) -> None:
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.poll_seconds = poll_seconds

    # -- phase 1: publish --------------------------------------------------------------

    def prepare(
        self, spec: SweepSpec, sweep_id: Optional[str] = None
    ) -> PreparedSweep:
        """Plan the grid, publish the cells the store cannot answer.

        Distributed sweeps run the default :class:`RunConfig` — the same
        contract as CLI sweeps and the service — because workers recompute
        cell keys independently and a side-channel configuration would break
        that symmetry.  Every cell must be cacheable (spec-backed machines):
        an uncacheable cell has no content-addressed identity for workers to
        rendezvous on, so it is rejected here, before anything is published.
        """
        cells = plan_sweep(spec, RunConfig(), self.store)
        pending: List[ManifestCell] = []
        for cell in cells:
            if cell.key is None:
                raise ClusterError(
                    f"cell ({cell.program}, {cell.latency}, {cell.simulator.name}) "
                    "is not cacheable; distributed sweeps need spec-backed "
                    "machines (the cell key is the cluster's unit of "
                    "coordination)"
                )
            if cell.result is None:
                pending.append(
                    ManifestCell(
                        key=cell.key,
                        program=cell.program,
                        latency=cell.latency,
                        architecture=cell.simulator.name,
                        scale=spec.scale,
                        cost=estimate_cell_cost(cell.program, spec.scale, cell.latency),
                    )
                )
        manifest: Optional[Manifest] = None
        if pending:
            manifest = Manifest(
                sweep_id=sweep_id if sweep_id else new_sweep_id(),
                spec={
                    "programs": list(spec.programs),
                    "latencies": list(spec.latencies),
                    "architectures": list(spec.architectures),
                    "scale": spec.scale,
                    "axes": [[name, list(values)] for name, values in spec.axes],
                },
                created_unix=time.time(),
                cells=tuple(pending),
            )
            manifest.write(self.store)
        return PreparedSweep(
            sweep_id=manifest.sweep_id if manifest is not None else (sweep_id or "warm"),
            spec=spec,
            cells=cells,
            manifest=manifest,
        )

    # -- phase 2: drain ----------------------------------------------------------------

    def wait(
        self,
        prepared: PreparedSweep,
        timeout: Optional[float] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        """Block until every manifest cell resolves in the store.

        Each cell's result is read back the moment it lands (and marked
        ``cached=False``: this sweep simulated it) and reported through the
        same progress tracker the :class:`~repro.core.experiment.Runner`
        uses.  Raises :class:`ClusterError` when the sweep can no longer
        finish: every unfinished cell has a failure reported against it in
        some worker's status file, or ``timeout`` elapsed.
        """
        tracker = _ProgressTracker(progress, prepared.total)
        remaining: Dict[str, PlannedCell] = {}
        for cell in prepared.cells:
            if cell.result is not None:
                tracker.report(cell.result)
            else:
                remaining[cell.key] = cell  # type: ignore[index]
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while remaining:
            for key, cell in list(remaining.items()):
                found = self.store.get(key) if key in self.store else None
                if found is not None:
                    del remaining[key]
                    cell.result = replace(found, cached=False)
                    tracker.report(cell.result)
            if not remaining:
                return
            failed = self._failed_keys(prepared.sweep_id)
            if failed and set(remaining) <= failed.keys():
                details = "; ".join(
                    failed[key] for key in list(remaining)[:3]
                )
                raise ClusterError(
                    f"sweep {prepared.sweep_id}: all {len(remaining)} unfinished "
                    f"cells failed on every worker that tried ({details})"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise ClusterError(
                    f"sweep {prepared.sweep_id}: timed out with {len(remaining)} of "
                    f"{prepared.unfinished} cells unfinished"
                )
            time.sleep(self.poll_seconds)

    def _failed_keys(self, sweep_id: str) -> Dict[str, str]:
        """Cell keys some worker reported a failure for, with the messages."""
        failed: Dict[str, str] = {}
        for status in read_worker_statuses(self.store, sweep_id):
            for error in status.get("errors", ()):
                if isinstance(error, dict) and "key" in error:
                    failed[str(error["key"])] = str(error.get("error", "?"))
        return failed

    # -- phase 3: collect --------------------------------------------------------------

    def assemble(self, prepared: PreparedSweep) -> SweepResult:
        """The full grid, in grid order.

        Manifest cells that :meth:`wait` did not read back (a caller that
        ran the workers itself) are read from the store now.  They come back
        marked ``cached=False``: the store is how their results travelled,
        but *this* sweep simulated them — so the cached/simulated split
        matches what a serial run would report, and the assembled
        :class:`SweepResult` is golden-identical to one.
        """
        for cell in prepared.cells:
            if cell.result is None:
                found = self.store.get(cell.key)  # type: ignore[arg-type]
                if found is None:
                    raise ClusterError(
                        f"cell ({cell.program}, {cell.latency}, {cell.simulator.name}) "
                        "vanished from the store during assembly (evicted mid-sweep?)"
                    )
                cell.result = replace(found, cached=False)
        results = [cell.result for cell in prepared.cells]
        # Workers merge their own cells into the advisory index, but one
        # terminated mid-sweep (or killed) never gets to; merging here is
        # idempotent and closes that gap.
        self.store.update_index(results, scale=prepared.spec.scale)
        return SweepResult(spec=prepared.spec, results=results)  # type: ignore[arg-type]

    def run_distributed(
        self,
        spec: SweepSpec,
        timeout: Optional[float] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> SweepResult:
        """Publish ``spec`` for the standing ``repro worker`` fleet and wait.

        A fully warm sweep publishes nothing and returns at once.  Otherwise
        the call blocks until workers serving this store have simulated every
        published cell; pass ``timeout`` so a store no worker serves cannot
        block forever.
        """
        prepared = self.prepare(spec)
        self.wait(prepared, timeout=timeout, progress=progress)
        return self.assemble(prepared)


# -- status and maintenance ------------------------------------------------------------


def read_worker_statuses(
    store: ResultStore, sweep_id: str
) -> List[Dict[str, object]]:
    """Every worker status file of one sweep, unreadable ones skipped."""
    directory = workers_dir(store, sweep_id)
    if not directory.is_dir():
        return []
    statuses = []
    for path in sorted(directory.glob("*.json")):
        try:
            with path.open() as handle:
                statuses.append(json.load(handle))
        except (OSError, ValueError):
            continue
    return statuses


def cluster_status(store: ResultStore, now: Optional[float] = None) -> Dict[str, object]:
    """The cluster's observable state, for the CLI and ``/v1/stats``.

    Liveness is judged from heartbeat ages: a worker whose status file was
    refreshed within two lease periods is ``live``, anything older is
    ``stale`` (dead or wedged — either way its claims are expiring).
    """
    now = now if now is not None else time.time()
    sweeps: List[Dict[str, object]] = []
    for sweep_id in list_sweep_ids(store):
        try:
            manifest = load_manifest(store, sweep_id)
        except ClusterError:
            continue
        remaining = remaining_cells(manifest, store)
        claims = []
        directory = claims_dir(store, sweep_id)
        if directory.is_dir():
            for path in sorted(directory.glob("*.claim")):
                claim = read_claim(path)
                if claim is not None:
                    claims.append(claim)
        workers = []
        for status in read_worker_statuses(store, sweep_id):
            counters = status.get("counters", {})
            updated = float(status.get("updated_unix", 0.0) or 0.0)
            lease = float(status.get("lease_seconds", DEFAULT_LEASE_SECONDS) or 0.0)
            heartbeat_age = round(now - updated, 3) if updated else None
            workers.append(
                {
                    "worker": status.get("worker", "?"),
                    "pid": status.get("pid"),
                    "host": status.get("host"),
                    "live": bool(
                        heartbeat_age is not None
                        and heartbeat_age <= 2.0 * max(lease, 1.0)
                    ),
                    "heartbeat_age_seconds": heartbeat_age,
                    "claimed": counters.get("claimed", 0),
                    "stolen": counters.get("stolen", 0),
                    "completed": counters.get("completed", 0),
                    "failed": counters.get("failed", 0),
                }
            )
        sweeps.append(
            {
                "sweep": sweep_id,
                "created_unix": round(manifest.created_unix, 3),
                "state": "running" if remaining else "done",
                "total": len(manifest),
                "done": len(manifest) - len(remaining),
                "remaining": len(remaining),
                "claims_active": sum(1 for c in claims if not c.expired(now)),
                "claims_expired": sum(1 for c in claims if c.expired(now)),
                "workers": workers,
            }
        )
    return {
        "root": str(cluster_root(store)),
        "sweeps": sweeps,
        "running_sweeps": sum(1 for s in sweeps if s["state"] == "running"),
    }


def reap_cluster(
    store: ResultStore,
    dry_run: bool = False,
    claim_grace_seconds: float = 3600.0,
    sweep_grace_seconds: float = 3600.0,
    now: Optional[float] = None,
) -> Dict[str, int]:
    """Reclaim dead cluster state (the ``repro cache gc`` hook).

    Two policies, both conservative:

    * claim files whose lease expired more than ``claim_grace_seconds`` ago
      are unlinked — workers steal merely-expired claims themselves within
      one lease, so a claim expired for an *hour* means no worker is coming;
    * sweep directories whose manifest has fully drained (or is unreadable)
      and was last touched more than ``sweep_grace_seconds`` ago are removed
      wholesale — the results live in the store; the coordination scaffolding
      is disposable.
    """
    import shutil

    now = now if now is not None else time.time()
    root = cluster_root(store)
    claims_reaped = 0
    sweeps_reaped = 0
    if not root.is_dir():
        return {"claims_reaped": 0, "sweeps_reaped": 0}
    for path in sorted(root.iterdir()):
        if not path.is_dir():
            continue
        sweep_id = path.name
        drained = False
        try:
            manifest = load_manifest(store, sweep_id)
            drained = not remaining_cells(manifest, store)
        except ClusterError:
            drained = True  # no usable manifest: nothing can ever work on it
        try:
            age = now - max(
                (p.stat().st_mtime for p in path.rglob("*")),
                default=path.stat().st_mtime,
            )
        except OSError:
            age = 0.0
        if drained and age > sweep_grace_seconds:
            sweeps_reaped += 1
            if not dry_run:
                shutil.rmtree(path, ignore_errors=True)
            continue
        claim_directory = path / "claims"
        if claim_directory.is_dir():
            for claim_path in sorted(claim_directory.glob("*.claim")):
                claim = read_claim(claim_path)
                if claim is None:
                    continue
                if claim.age(now) > claim.lease_seconds + claim_grace_seconds:
                    claims_reaped += 1
                    if not dry_run:
                        try:
                            claim_path.unlink()
                        except OSError:
                            pass
    return {"claims_reaped": claims_reaped, "sweeps_reaped": sweeps_reaped}
