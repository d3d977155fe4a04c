"""The cell manifest: one sweep's unfinished work, as a shared file.

A distributed sweep is coordinated entirely through the result-store
directory, and the manifest is its root object: the coordinator plans the
sweep grid, drops every cell the store already answers, ranks the remainder
by estimated simulation cost (the program's trace length, see
:func:`~repro.core.experiment.estimate_cell_cost`, so the longest programs
are claimed first and the sweep's critical path stays short), and writes
the result atomically as::

    <store>/v<N>/cluster/<sweep_id>/manifest.json

Workers need nothing else to participate: a manifest entry carries the
cell's content-addressed key plus everything required to recompute it —
program, scale, latency and the architecture label, which re-resolves
through the registry to the exact machine the coordinator meant (canonical
spec strings resolve anywhere a preset name does).  Recomputing the key and
comparing it against the manifest's is the workers' integrity check: a
worker running different trace-generator or timing-model code derives a
different key and refuses the cell instead of poisoning the store.

The manifest is immutable once written.  Progress lives in the store itself
(a cell is done exactly when its key resolves) and in the claim files next
door (:mod:`repro.cluster.claims`), so crashed coordinators leave nothing
inconsistent behind — at worst a drained manifest for ``repro cache gc`` to
sweep up.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.common.errors import ConfigurationError
from repro.store import ResultStore

#: Version of the manifest payload.  Workers refuse manifests of a different
#: version, so a layout change can never be half-understood.
MANIFEST_FORMAT_VERSION = 1


class ClusterError(ConfigurationError):
    """A distributed sweep cannot proceed (bad manifest, lost workers, ...)."""


def cluster_root(store: ResultStore) -> Path:
    """Where cluster state lives inside ``store`` (``<root>/v<N>/cluster``)."""
    return store.version_dir / "cluster"


def sweep_dir(store: ResultStore, sweep_id: str) -> Path:
    """One sweep's coordination directory (manifest, claims, worker status)."""
    if not sweep_id or "/" in sweep_id or sweep_id.startswith("."):
        raise ClusterError(f"malformed sweep id {sweep_id!r}")
    return cluster_root(store) / sweep_id


def manifest_path(store: ResultStore, sweep_id: str) -> Path:
    return sweep_dir(store, sweep_id) / "manifest.json"


def claims_dir(store: ResultStore, sweep_id: str) -> Path:
    return sweep_dir(store, sweep_id) / "claims"


def workers_dir(store: ResultStore, sweep_id: str) -> Path:
    return sweep_dir(store, sweep_id) / "workers"


@dataclass(frozen=True)
class ManifestCell:
    """One unfinished sweep cell, as published to the workers.

    Attributes:
        key: the cell's content-addressed store key — its identity, its
            completion marker (the cell is done when the key resolves in the
            store) and its claim-file name.
        program / latency / architecture / scale: everything a worker needs
            to recompute the key and simulate the cell.  ``architecture`` is
            the cell's label (a registry name or canonical spec string),
            which resolves through the registry on any host.
        cost: the coordinator's cost estimate, recorded so workers and
            status tooling rank work identically without re-deriving it.
    """

    key: str
    program: str
    latency: int
    architecture: str
    scale: float
    cost: int

    def to_json(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "program": self.program,
            "latency": self.latency,
            "architecture": self.architecture,
            "scale": self.scale,
            "cost": self.cost,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ManifestCell":
        try:
            return cls(
                key=str(data["key"]),
                program=str(data["program"]),
                latency=int(data["latency"]),  # type: ignore[arg-type]
                architecture=str(data["architecture"]),
                scale=float(data["scale"]),  # type: ignore[arg-type]
                cost=int(data["cost"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterError(f"malformed manifest cell: {exc}") from exc


@dataclass(frozen=True)
class Manifest:
    """One sweep's immutable work list, cost-ranked costliest first."""

    sweep_id: str
    spec: Dict[str, object]
    created_unix: float
    cells: tuple

    def __post_init__(self) -> None:
        ranked = tuple(
            sorted(self.cells, key=lambda cell: (-cell.cost, cell.key))
        )
        object.__setattr__(self, "cells", ranked)

    def __len__(self) -> int:
        return len(self.cells)

    def to_json(self) -> Dict[str, object]:
        return {
            "format": MANIFEST_FORMAT_VERSION,
            "sweep_id": self.sweep_id,
            "created_unix": round(self.created_unix, 3),
            "spec": self.spec,
            "cells": [cell.to_json() for cell in self.cells],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "Manifest":
        if data.get("format") != MANIFEST_FORMAT_VERSION:
            raise ClusterError(
                f"manifest format {data.get('format')!r} is not "
                f"{MANIFEST_FORMAT_VERSION} (coordinator and worker must run "
                "the same repro version)"
            )
        cells = data.get("cells")
        if not isinstance(cells, list):
            raise ClusterError("manifest has no cell list")
        spec = data.get("spec")
        return cls(
            sweep_id=str(data.get("sweep_id", "")),
            spec=dict(spec) if isinstance(spec, Mapping) else {},
            created_unix=float(data.get("created_unix", 0.0)),  # type: ignore[arg-type]
            cells=tuple(ManifestCell.from_json(cell) for cell in cells),
        )

    def write(self, store: ResultStore) -> Path:
        """Persist the manifest atomically; returns its path."""
        path = manifest_path(store, self.sweep_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.to_json(), handle, indent=2)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path


def load_manifest(store: ResultStore, sweep_id: str) -> Manifest:
    """Read one sweep's manifest; raises :class:`ClusterError` when unusable."""
    path = manifest_path(store, sweep_id)
    try:
        with path.open() as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ClusterError(f"no manifest for sweep {sweep_id!r} at {path}") from exc
    except ValueError as exc:
        raise ClusterError(f"manifest for sweep {sweep_id!r} is corrupt") from exc
    manifest = Manifest.from_json(data)
    if manifest.sweep_id != sweep_id:
        raise ClusterError(
            f"manifest at {path} labels itself {manifest.sweep_id!r}"
        )
    return manifest


def list_sweep_ids(store: ResultStore) -> List[str]:
    """Every sweep directory holding a manifest, oldest manifest first."""
    root = cluster_root(store)
    if not root.is_dir():
        return []
    found = []
    for path in root.iterdir():
        manifest = path / "manifest.json"
        if path.is_dir() and manifest.is_file():
            try:
                found.append((manifest.stat().st_mtime, path.name))
            except OSError:
                continue
    return [name for _mtime, name in sorted(found)]


def remaining_cells(
    manifest: Manifest, store: ResultStore
) -> List[ManifestCell]:
    """Manifest cells whose results are not in the store yet (cost order)."""
    return [cell for cell in manifest.cells if cell.key not in store]


def new_sweep_id(token: Optional[str] = None) -> str:
    """A fresh, filesystem-safe sweep id (``sw-<unixtime>-<entropy>``)."""
    if token is None:
        token = os.urandom(4).hex()
    return f"sw-{int(time.time())}-{token}"
