"""The cluster worker: claim, simulate, store, repeat.

A :class:`ClusterWorker` is one process cooperating on a distributed sweep
(``repro worker`` on the command line).  It owns no sockets and speaks no
protocol — the shared store directory *is* the coordination substrate:

1. load the sweep's manifest (:mod:`repro.cluster.manifest`);
2. walk the unfinished cells costliest first; for each, first check the
   store (another worker may have finished it), then race an atomic claim
   (:mod:`repro.cluster.claims`), then — for cells whose claim has expired —
   steal the dead holder's lease;
3. simulate won cells through the in-process runner's own cell executor
   (:func:`~repro.core.experiment._run_cells`, over one per-worker
   :class:`~repro.core.experiment.TraceCache`, so cells of the same program
   share a trace build), which writes the result through the
   :class:`~repro.store.ResultStore`; then release the claim;
4. loop until every manifest cell resolves in the store.

A heartbeat thread refreshes the leases of held claims and rewrites the
worker's status file (``workers/<id>.json`` next to the manifest) with its
claim/steal/complete counters, so ``repro cluster status`` and the
coordinator can see who is alive and who stopped beating.

Before simulating, the worker *recomputes* the cell's content-addressed key
from the manifest's (program, scale, latency, architecture) and refuses the
cell if it disagrees with the manifest — a worker running different
trace-generator or timing-model code must never publish results under the
coordinator's keys.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.common.errors import ReproError
from repro.core.config import RunConfig
from repro.core.experiment import TraceCache, _run_cells
from repro.core.registry import resolve_architecture
from repro.core.result import RunResult
from repro.store import ResultStore, cell_key
from repro.cluster.claims import DEFAULT_LEASE_SECONDS, ClaimSet, Heartbeat
from repro.cluster.manifest import (
    ClusterError,
    Manifest,
    ManifestCell,
    claims_dir,
    list_sweep_ids,
    load_manifest,
    remaining_cells,
    workers_dir,
)

#: Version of the worker status payload.
WORKER_STATUS_FORMAT_VERSION = 1


def default_worker_id() -> str:
    """A host-unique worker identity (``<hostname>-<pid>``)."""
    host = "".join(
        ch if ch.isalnum() or ch in "-_." else "-" for ch in socket.gethostname()
    )
    return f"{host or 'host'}-{os.getpid()}"


class ClusterWorker:
    """One cooperating worker process of a distributed sweep.

    Args:
        store: the shared result store (an instance or a directory path).
        worker_id: identity used in claim files and the status file;
            defaults to ``<hostname>-<pid>``, unique per process.
        lease_seconds: how long a held claim stays valid without a
            heartbeat; crashed workers' cells become stealable after this.
        poll_seconds: sleep between passes when every unfinished cell is
            validly claimed by someone else.
    """

    def __init__(
        self,
        store: Union[ResultStore, str, Path],
        worker_id: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = 0.05,
    ) -> None:
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.worker_id = worker_id if worker_id else default_worker_id()
        if "/" in self.worker_id:
            raise ClusterError(f"worker id {self.worker_id!r} is not filesystem-safe")
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.config = RunConfig()
        self.trace_cache = TraceCache()
        self.started_unix = time.time()
        # Lifetime counters, across every sweep this worker serves.
        self.claimed = 0
        self.stolen = 0
        self.completed = 0
        self.observed_done = 0
        self.failed = 0
        self.errors: List[Dict[str, str]] = []
        self._status_dir: Optional[Path] = None
        self._current_sweep: Optional[str] = None
        self._active_claims: Optional[ClaimSet] = None

    # -- status reporting --------------------------------------------------------------

    def status_payload(self) -> Dict[str, object]:
        # Claim/steal bookkeeping lives in the current sweep's ClaimSet until
        # run_sweep folds it into the lifetime counters on the way out; the
        # live view must include it, because a worker terminated mid-sweep
        # (SIGTERM, SIGKILL, a lost host) never reaches
        # that fold — its last heartbeat write is all the record there is.
        claimed, stolen = self.claimed, self.stolen
        active = self._active_claims
        if active is not None:
            claimed += active.claimed
            stolen += active.stolen
        return {
            "format": WORKER_STATUS_FORMAT_VERSION,
            "worker": self.worker_id,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "sweep": self._current_sweep,
            "lease_seconds": self.lease_seconds,
            "started_unix": round(self.started_unix, 3),
            "updated_unix": round(time.time(), 3),
            "counters": {
                "claimed": claimed,
                "stolen": stolen,
                "completed": self.completed,
                "observed_done": self.observed_done,
                "failed": self.failed,
            },
            "errors": self.errors[-8:],
        }

    def write_status(self) -> None:
        """Atomically rewrite this worker's status file (heartbeat cadence)."""
        directory = self._status_dir
        if directory is None:
            return
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.status_payload(), handle, indent=2)
            os.replace(tmp_name, directory / f"{self.worker_id}.json")
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- cell execution ----------------------------------------------------------------

    def _execute(self, cell: ManifestCell) -> Optional[RunResult]:
        """Simulate one claimed cell and persist it; ``None`` on refusal.

        Refusals (unknown architecture, key mismatch, simulator failure) are
        recorded in the status file and the claim is left to *expire* rather
        than being released: an immediate release would make every other
        worker instantly retry a cell that just failed deterministically,
        while an expiring claim retries at lease cadence — and lets a
        version-skewed worker's cells fall to correctly-versioned peers.
        """
        try:
            simulator = resolve_architecture(cell.architecture)
            recomputed = cell_key(
                cell.program, cell.scale, cell.latency, simulator, self.config
            )
            if recomputed != cell.key:
                raise ClusterError(
                    f"cell key mismatch for {cell.program} lat={cell.latency} "
                    f"{cell.architecture}: manifest {cell.key[:12]}..., this "
                    f"worker derives {str(recomputed)[:12]}... (coordinator "
                    "and worker must run the same repro version)"
                )
            trace = self.trace_cache.get(cell.program, cell.scale)
            (result,) = _run_cells(
                trace, [(cell.latency, simulator, cell.key)], self.config,
                self.store, cell.scale,
            )
        except ReproError as exc:
            self.failed += 1
            self.errors.append({"key": cell.key, "error": f"{type(exc).__name__}: {exc}"})
            self.write_status()
            return None
        self.completed += 1
        return result

    # -- the work loop -----------------------------------------------------------------

    def run_sweep(
        self,
        sweep_id: str,
        manifest: Optional[Manifest] = None,
        wait: bool = True,
    ) -> Dict[str, int]:
        """Work on one sweep until its manifest drains; returns the counters.

        With ``wait=False`` the worker returns as soon as a full pass over
        the manifest finds nothing to do — every unfinished cell validly
        claimed by a live peer — instead of idling until those peers finish
        (or die and get stolen from).
        """
        if manifest is None:
            manifest = load_manifest(self.store, sweep_id)
        claims = ClaimSet(
            claims_dir(self.store, sweep_id), self.worker_id, self.lease_seconds
        )
        self._status_dir = workers_dir(self.store, sweep_id)
        self._current_sweep = sweep_id
        self._active_claims = claims
        self.write_status()
        remaining: Dict[str, ManifestCell] = {
            cell.key: cell for cell in manifest.cells
        }
        written: List[RunResult] = []
        heartbeat = Heartbeat(claims, on_beat=self.write_status)
        try:
            with heartbeat:
                while remaining:
                    progress = False
                    for cell in list(remaining.values()):
                        if cell.key in self.store:
                            remaining.pop(cell.key)
                            self.observed_done += 1
                            progress = True
                            continue
                        won = claims.try_claim(cell.key) or claims.try_steal(cell.key)
                        if not won:
                            continue
                        # Claim races with completion: re-check before the
                        # expensive part so a just-finished cell is not
                        # simulated again.
                        if cell.key in self.store:
                            claims.release(cell.key)
                            remaining.pop(cell.key)
                            self.observed_done += 1
                            progress = True
                            continue
                        result = self._execute(cell)
                        remaining.pop(cell.key)
                        progress = True
                        if result is not None:
                            claims.release(cell.key)
                            written.append(result)
                            self.write_status()
                        else:
                            # Refused: leave the claim to expire (see
                            # _execute) but stop heartbeating it.
                            claims.abandon(cell.key)
                    if remaining and not progress:
                        if not wait:
                            break
                        time.sleep(self.poll_seconds)
        finally:
            self._active_claims = None
            self.claimed += claims.claimed
            self.stolen += claims.stolen
            # Claims of refused cells stay behind deliberately (see
            # _execute); everything else was released on completion.
            if written:
                self.store.update_index(written, scale=manifest_scale(manifest))
            self.write_status()
        return dict(self.status_payload()["counters"])  # type: ignore[arg-type]

    def run(
        self,
        sweep_ids: Optional[List[str]] = None,
        once: bool = False,
        poll_seconds: float = 0.5,
    ) -> Dict[str, int]:
        """Serve sweeps: the given ones, or whatever manifests the store has.

        With ``once=True`` the worker makes one pass — every known manifest
        driven to drained — and returns.  Otherwise it keeps polling the
        cluster directory for new manifests until interrupted, which is the
        ``repro worker`` daemon mode: start workers on any number of hosts
        sharing the store directory and feed them by writing manifests.
        """
        explicit = sweep_ids is not None
        while True:
            ids = sweep_ids if explicit else list_sweep_ids(self.store)
            worked = False
            for sweep_id in ids or ():
                manifest = load_manifest(self.store, sweep_id)
                if not remaining_cells(manifest, self.store):
                    continue
                worked = True
                self.run_sweep(sweep_id, manifest=manifest)
            if once or explicit:
                break
            if not worked:
                time.sleep(poll_seconds)
        return dict(self.status_payload()["counters"])  # type: ignore[arg-type]


def manifest_scale(manifest: Manifest) -> float:
    """The sweep's trace scale (cells of one sweep share it by construction)."""
    if manifest.cells:
        return manifest.cells[0].scale
    spec_scale = manifest.spec.get("scale", 1.0)
    return float(spec_scale) if isinstance(spec_scale, (int, float)) else 1.0
