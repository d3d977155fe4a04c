"""Store-coordinated, work-stealing sweep execution across processes and hosts.

``repro.cluster`` turns a sweep into a shared, crash-tolerant work queue with
no server and no protocol — the :class:`~repro.store.ResultStore` directory is
the only coordination substrate, so anything that can mount it (processes on
one machine, hosts on a shared filesystem) can cooperate:

* the **coordinator** (:mod:`repro.cluster.coordinator`) plans the sweep the
  way the in-process runner does, publishes the unfinished cells as a
  manifest (costliest program first), and assembles the final
  :class:`~repro.core.experiment.SweepResult` when the store answers them all;
* **workers** (:mod:`repro.cluster.worker`), started by the user as
  ``repro worker`` on any host that mounts the store, claim cells through
  atomic ``O_CREAT | O_EXCL`` claim files with heartbeat-refreshed leases
  (:mod:`repro.cluster.claims`), simulate them through the in-process
  runner's cell executor, and write results through the store;
* crashed workers' leases expire and their cells are **stolen** by peers, so
  killing any worker — or the coordinator — never loses work: at-least-once
  execution is safe because cells are deterministic and content-addressed
  (duplicate runs write byte-identical objects under the same key).

The CLI surfaces are ``repro sweep --distributed``, ``repro worker`` and
``repro cluster status``; ``repro cache gc`` reaps dead cluster state.
"""

from repro.cluster.claims import (
    DEFAULT_LEASE_SECONDS,
    ClaimInfo,
    ClaimSet,
    Heartbeat,
    read_claim,
)
from repro.cluster.coordinator import (
    ClusterCoordinator,
    PreparedSweep,
    cluster_status,
    reap_cluster,
    read_worker_statuses,
)
from repro.cluster.manifest import (
    MANIFEST_FORMAT_VERSION,
    ClusterError,
    Manifest,
    ManifestCell,
    claims_dir,
    cluster_root,
    list_sweep_ids,
    load_manifest,
    manifest_path,
    new_sweep_id,
    remaining_cells,
    sweep_dir,
    workers_dir,
)
from repro.cluster.worker import (
    WORKER_STATUS_FORMAT_VERSION,
    ClusterWorker,
    default_worker_id,
)

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "WORKER_STATUS_FORMAT_VERSION",
    "DEFAULT_LEASE_SECONDS",
    "ClusterError",
    "Manifest",
    "ManifestCell",
    "ClaimInfo",
    "ClaimSet",
    "Heartbeat",
    "ClusterWorker",
    "ClusterCoordinator",
    "PreparedSweep",
    "cluster_root",
    "sweep_dir",
    "manifest_path",
    "claims_dir",
    "workers_dir",
    "load_manifest",
    "list_sweep_ids",
    "remaining_cells",
    "new_sweep_id",
    "read_claim",
    "default_worker_id",
    "cluster_status",
    "reap_cluster",
    "read_worker_statuses",
]
