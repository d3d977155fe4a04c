"""The persistent, content-addressed result store.

A :class:`ResultStore` maps the cache key of a sweep cell (see
:mod:`repro.store.keys`) to the cell's serialized
:class:`~repro.core.result.RunResult`.  Entries live as individual JSON
files under a versioned directory tree::

    <root>/v1/objects/<key[:2]>/<key>.json    one file per result
    <root>/v1/index.json                      rebuildable summary index

``<root>`` defaults to ``~/.cache/repro`` (respecting ``XDG_CACHE_HOME``)
and is overridable with the ``REPRO_CACHE_DIR`` environment variable or the
CLI's ``--store-dir``.  Every object file is self-describing — it carries
the store format version, its own key and a small metadata block — so the
index is pure convenience: it can always be rebuilt by scanning the object
tree, and :meth:`ResultStore.write_index` does exactly that.

Writes are atomic (temp file + ``os.replace`` in the same directory), so a
killed sweep never leaves a torn entry, and concurrent pool workers writing
the same key simply race to an identical file.  Reads treat anything
unreadable — missing, torn by an unrelated tool, or written by a different
format version — as a miss, which the next write repairs.

The advisory index is the one file several writers *merge into* rather than
replace wholesale, so its read-modify-write cycle is serialized by a
cooperative lockfile (``index.lock``, created with ``O_CREAT | O_EXCL``):
without it, two concurrent sweeps — service requests, parallel CI jobs, or
two hosts sharing the store directory — could each read the same index,
merge their own cells, and have the second ``os.replace`` silently drop the
first writer's entries.  The lock is advisory like the index itself: a
writer that cannot acquire it within :attr:`ResultStore.index_lock_timeout`
skips the merge (objects are already on disk; the next full rebuild picks
them up), and a lockfile older than
:attr:`ResultStore.index_lock_stale_after` is broken, so a killed process
can never wedge the store.

The store is deliberately *provenance-only*: a loaded result differs from a
freshly simulated one solely in its ``cached`` flag (and both carry the
same ``store_key``), and those fields are excluded from equality, so cached
and fresh results compare equal and the golden suite cannot tell them
apart.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.common.errors import ConfigurationError
from repro.core.result import RunResult

#: Version of the on-disk layout.  Entries are stored under ``v<N>/``; a
#: bump strands the old tree, which ``gc`` and ``clear`` then reclaim.
STORE_FORMAT_VERSION = 1

_ENV_ROOT = "REPRO_CACHE_DIR"


def default_store_root() -> Path:
    """The store location used when none is given explicitly.

    Resolution order: ``$REPRO_CACHE_DIR``, then ``$XDG_CACHE_HOME/repro``,
    then ``~/.cache/repro``.
    """
    env = os.environ.get(_ENV_ROOT)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg).expanduser() / "repro"
    return Path.home() / ".cache" / "repro"


@dataclass(frozen=True)
class StoreEntry:
    """One persisted result, as listed by :meth:`ResultStore.entries`.

    Attributes:
        key: the entry's content-addressed cache key.
        program / architecture / latency / scale: the cell coordinates, from
            the entry's metadata block (for human listings; the key is what
            identifies the entry).
        size_bytes: size of the entry's file on disk.
        mtime: the file's modification time (seconds since the epoch) —
            the write time, which ``gc --max-age-days`` evicts by.
    """

    key: str
    program: str
    architecture: str
    latency: int
    scale: float
    size_bytes: int
    mtime: float


class ResultStore:
    """A content-addressed, crash-safe store of :class:`RunResult` payloads.

    Args:
        root: directory to keep the store under; defaults to
            :func:`default_store_root`.  Created lazily on first write, so
            constructing a store (e.g. in every pool worker) is free.

    The per-instance :attr:`hits`, :attr:`misses`, :attr:`writes`,
    :attr:`index_merges` and :attr:`index_merges_skipped` counters track
    this process's traffic only; they exist for reporting ("sweep: 30
    cached, 6 simulated", the service's ``/v1/stats``), not for accounting
    across processes.  :meth:`counters` returns them as one dictionary.
    """

    #: How long :meth:`update_index` waits for the index lock before giving
    #: the merge up (the index is advisory; the object files are already on
    #: disk and the next full rebuild finds them).
    index_lock_timeout: float = 10.0
    #: A lockfile older than this is treated as left behind by a killed
    #: process and broken.  Merges hold the lock for milliseconds, so a
    #: minute-old lock can only be an orphan.
    index_lock_stale_after: float = 60.0

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_store_root()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.index_merges = 0
        self.index_merges_skipped = 0

    def counters(self) -> Dict[str, int]:
        """This process's store traffic, as one dictionary (for reporting)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "index_merges": self.index_merges,
            "index_merges_skipped": self.index_merges_skipped,
        }

    # -- paths -----------------------------------------------------------------------

    @property
    def version_dir(self) -> Path:
        """The directory of the current on-disk format (``<root>/v1``)."""
        return self.root / f"v{STORE_FORMAT_VERSION}"

    @property
    def objects_dir(self) -> Path:
        return self.version_dir / "objects"

    @property
    def index_path(self) -> Path:
        return self.version_dir / "index.json"

    @property
    def index_lock_path(self) -> Path:
        return self.version_dir / "index.lock"

    def object_path(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists yet)."""
        self._check_key(key)
        return self.objects_dir / key[:2] / f"{key}.json"

    @staticmethod
    def _check_key(key: str) -> None:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ConfigurationError(f"malformed store key {key!r}")

    # -- read / write ----------------------------------------------------------------

    def get(self, key: str) -> Optional[RunResult]:
        """Load the result stored under ``key``, or ``None`` on a miss.

        The returned result is marked ``cached=True`` and carries ``key`` as
        its ``store_key``.  Unreadable entries (torn files, foreign formats)
        count as misses.
        """
        try:
            result = RunResult.from_json(self._load(key)["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return replace(result, cached=True, store_key=key)

    def _load(self, key: str) -> Dict[str, Any]:
        """The payload stored under ``key``.

        Raises ``OSError`` or ``ValueError`` for a missing or torn file, and
        ``ValueError`` for one of a foreign format or labelled with another
        key: such a file is no entry.
        """
        with self.object_path(key).open() as handle:
            payload = json.load(handle)
        if payload.get("format") != STORE_FORMAT_VERSION or payload.get("key") != key:
            raise ValueError("foreign or mislabelled store entry")
        return payload

    def put(self, key: str, result: RunResult, scale: float = 1.0) -> None:
        """Persist ``result`` under ``key``, atomically.

        ``scale`` is the trace scale the cell ran at — part of the key
        already, recorded in the metadata block only so listings can show it.
        Concurrent writers of the same key race benignly: the key determines
        the content, so whichever ``os.replace`` lands last installs an
        identical payload.
        """
        path = self.object_path(key)
        payload = {
            "format": STORE_FORMAT_VERSION,
            "key": key,
            "meta": {
                "program": result.program,
                "architecture": result.architecture,
                "latency": result.latency,
                "scale": float(scale),
                "created_unix": round(time.time(), 3),
            },
            "result": replace(result, cached=False, store_key=key).to_json(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1

    def __contains__(self, key: str) -> bool:
        return self.object_path(key).exists()

    # -- the index lock ----------------------------------------------------------------

    def _try_create_lock(self) -> bool:
        """One ``O_CREAT | O_EXCL`` attempt at the lockfile (the atomic step)."""
        try:
            fd = os.open(self.index_lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, f"pid={os.getpid()} created={round(time.time(), 3)}\n".encode())
        finally:
            os.close(fd)
        return True

    def _acquire_index_lock(self, timeout: Optional[float] = None) -> bool:
        """Acquire the cooperative index lock, or give up after ``timeout``.

        Contention is retried with a short sleep; a lockfile whose mtime is
        older than :attr:`index_lock_stale_after` is unlinked and the
        acquisition retried (two breakers racing is fine: the second unlink
        fails silently and exactly one ``O_EXCL`` create wins).
        """
        if timeout is None:
            timeout = self.index_lock_timeout
        self.version_dir.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + timeout
        while True:
            if self._try_create_lock():
                return True
            try:
                age = time.time() - self.index_lock_path.stat().st_mtime
            except OSError:
                continue  # holder released between attempts; retry at once
            if age > self.index_lock_stale_after:
                try:
                    self.index_lock_path.unlink()
                except OSError:
                    pass
                continue
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    def _release_index_lock(self) -> None:
        try:
            self.index_lock_path.unlink()
        except OSError:
            pass

    @contextmanager
    def _index_lock(self, timeout: Optional[float] = None) -> Iterator[bool]:
        """Hold the index lock for the block; yields whether it was acquired."""
        acquired = self._acquire_index_lock(timeout)
        try:
            yield acquired
        finally:
            if acquired:
                self._release_index_lock()

    # -- listing and the index ---------------------------------------------------------

    def _object_files(self) -> Iterator[Path]:
        if not self.objects_dir.is_dir():
            return
        for bucket in sorted(self.objects_dir.iterdir()):
            if not bucket.is_dir():
                continue
            yield from sorted(bucket.glob("*.json"))

    def entries(self) -> List[StoreEntry]:
        """Every entry :meth:`get` can read, sorted oldest write first.

        A file is an entry only where :meth:`get` looks for its stored key,
        so a mislabelled or misplaced file is left out, as :meth:`get`
        treats it as foreign.
        """
        entries: List[StoreEntry] = []
        for path in self._object_files():
            key = path.stem
            try:
                if self.object_path(key) != path:
                    continue
                stat = path.stat()
                meta = self._load(key).get("meta", {})
                entries.append(
                    StoreEntry(
                        key=key,
                        program=str(meta.get("program", "?")),
                        architecture=str(meta.get("architecture", "?")),
                        latency=int(meta.get("latency", -1)),
                        scale=float(meta.get("scale", 1.0)),
                        size_bytes=stat.st_size,
                        mtime=stat.st_mtime,
                    )
                )
            except (ConfigurationError, OSError, ValueError, KeyError, TypeError):
                continue
        entries.sort(key=lambda entry: (entry.mtime, entry.key))
        return entries

    def __len__(self) -> int:
        return sum(1 for _ in self._object_files())

    def write_index(self, entries: Optional[List[StoreEntry]] = None) -> Path:
        """Rebuild ``index.json`` from the object tree and write it atomically.

        The index is a human/tooling convenience (``repro cache stats`` reads
        it back); correctness never depends on it being fresh.  Callers that
        just scanned may pass their ``entries`` to avoid a second walk.

        The write itself takes the index lock so it cannot interleave with a
        concurrent :meth:`update_index` merge, but a full rebuild is an
        explicit maintenance operation and proceeds even when the lock
        cannot be acquired — it is authoritative for what the scan saw.
        """
        if entries is None:
            entries = self.entries()
        payload = {
            entry.key: {
                "program": entry.program,
                "architecture": entry.architecture,
                "latency": entry.latency,
                "scale": entry.scale,
                "bytes": entry.size_bytes,
                "mtime": round(entry.mtime, 3),
            }
            for entry in entries
        }
        with self._index_lock():
            return self._write_index_payload(payload)

    def _write_index_payload(self, entries: Dict[str, Dict[str, object]]) -> Path:
        payload = {
            "format": STORE_FORMAT_VERSION,
            "updated_unix": round(time.time(), 3),
            "entry_count": len(entries),
            "total_bytes": sum(int(entry.get("bytes", 0)) for entry in entries.values()),  # type: ignore[arg-type]
            "entries": entries,
        }
        self.version_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.version_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2)
            os.replace(tmp_name, self.index_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return self.index_path

    def update_index(
        self, results: Sequence[RunResult], scale: float = 1.0
    ) -> bool:
        """Merge just-written results into ``index.json`` without a full scan.

        Every cell driver calls this with the results it produced; cached
        results (already indexed when first written) and results without a
        ``store_key`` (simulated with no store) are skipped here, so callers
        pass their results as they are.  Cost is O(cells written), not O(store
        size), so a small incremental sweep against a large long-lived store
        stays cheap.  The existing index is taken as-is (an unreadable or
        foreign one is discarded and the merge starts from this sweep's
        entries); entries for keys some other process evicted meanwhile
        linger until the next full rebuild — the index is advisory, and
        ``cache stats``/``gc`` rebuild it exactly.

        The whole read-merge-write cycle holds the index lock, so concurrent
        mergers (service requests, parallel sweeps, other hosts on a shared
        store) serialize instead of overwriting each other's entries.  When
        the lock cannot be acquired within :attr:`index_lock_timeout` the
        merge is *skipped* — never half-done — and ``False`` is returned;
        the objects themselves are already on disk and the next merge or
        full rebuild indexes them.
        """
        written = [
            result
            for result in results
            if result.store_key is not None and not result.cached
        ]
        if not written:
            return True
        with self._index_lock() as acquired:
            if not acquired:
                self.index_merges_skipped += 1
                return False
            try:
                with self.index_path.open() as handle:
                    payload = json.load(handle)
                entries = (
                    payload["entries"]
                    if payload.get("format") == STORE_FORMAT_VERSION
                    else {}
                )
                if not isinstance(entries, dict):
                    entries = {}
            except (OSError, ValueError, KeyError):
                entries = {}
            changed = False
            for result in written:
                key = result.store_key
                try:
                    stat = self.object_path(key).stat()
                except OSError:
                    continue
                entries[key] = {
                    "program": result.program,
                    "architecture": result.architecture,
                    "latency": result.latency,
                    "scale": float(scale),
                    "bytes": stat.st_size,
                    "mtime": round(stat.st_mtime, 3),
                }
                changed = True
            if changed:
                self._write_index_payload(entries)
                self.index_merges += 1
        return True

    def stats(self, refresh_index: bool = False) -> Dict[str, object]:
        """Aggregate numbers for ``repro cache stats`` (always a fresh scan).

        With ``refresh_index=True`` the same scan is also written out as
        ``index.json`` — including when the scan came back empty, so an
        index left behind by a since-evicted tree never goes stale.  A store
        that does not exist on disk at all is left untouched.
        """
        entries = self.entries()
        if refresh_index and (entries or self.version_dir.is_dir()):
            self.write_index(entries)
        by_architecture: Dict[str, int] = {}
        for entry in entries:
            by_architecture[entry.architecture] = (
                by_architecture.get(entry.architecture, 0) + 1
            )
        stale = [
            path.name
            for path in sorted(self.root.glob("v*"))
            if path.is_dir() and path != self.version_dir
        ]
        return {
            "root": str(self.root),
            "format": STORE_FORMAT_VERSION,
            "entry_count": len(entries),
            "total_bytes": sum(entry.size_bytes for entry in entries),
            "by_architecture": by_architecture,
            "stale_version_dirs": stale,
            "process_counters": self.counters(),
        }

    # -- eviction --------------------------------------------------------------------

    def gc(
        self,
        max_age_days: Optional[float] = None,
        max_bytes: Optional[int] = None,
        dry_run: bool = False,
    ) -> Dict[str, object]:
        """Evict entries and reclaim space; returns a report of what happened.

        Three policies compose, all optional:

        * stale version directories (``v0``, ``v2``, ... — any tree not of
          the current :data:`STORE_FORMAT_VERSION`) are always removed: no
          current reader can ever hit them — as are ``*.tmp`` files older
          than an hour, orphaned by writers that were killed between
          ``mkstemp`` and ``os.replace`` (entries never see them, so only
          ``gc`` can reclaim that space);
        * ``max_age_days`` evicts entries written longer ago than that;
        * ``max_bytes`` then evicts oldest-written-first until the current
          tree fits the budget.

        With ``dry_run=True`` nothing is deleted; the report shows what
        would be.  The index is rewritten after a real collection.
        """
        if max_age_days is not None and max_age_days < 0:
            raise ConfigurationError("--max-age-days cannot be negative")
        if max_bytes is not None and max_bytes < 0:
            raise ConfigurationError("--max-bytes cannot be negative")

        stale_dirs = [
            path
            for path in sorted(self.root.glob("v*"))
            if path.is_dir() and path != self.version_dir
        ]
        # Tmp files a writer was killed over — object writes land next to
        # their target, index writes in the version dir: any in-flight write
        # finishes in milliseconds, so an hour-old tmp can only be an orphan.
        orphan_cutoff = time.time() - 3600.0
        orphaned_tmp = []
        tmp_globs = [(self.version_dir, "*.tmp"), (self.objects_dir, "*/*.tmp")]
        for base, pattern in tmp_globs:
            if not base.is_dir():
                continue
            for path in sorted(base.glob(pattern)):
                try:
                    if path.stat().st_mtime < orphan_cutoff:
                        orphaned_tmp.append(path)
                except OSError:
                    continue
        entries = self.entries()
        evicted: List[StoreEntry] = []
        kept: List[StoreEntry] = []
        cutoff = (
            time.time() - max_age_days * 86400.0 if max_age_days is not None else None
        )
        for entry in entries:
            if cutoff is not None and entry.mtime < cutoff:
                evicted.append(entry)
            else:
                kept.append(entry)
        if max_bytes is not None:
            total = sum(entry.size_bytes for entry in kept)
            survivors: List[StoreEntry] = []
            for index, entry in enumerate(kept):  # oldest first
                if total > max_bytes:
                    evicted.append(entry)
                    total -= entry.size_bytes
                else:
                    survivors.extend(kept[index:])
                    break
            kept = survivors

        if not dry_run:
            for path in stale_dirs:
                shutil.rmtree(path, ignore_errors=True)
            for path in orphaned_tmp:
                try:
                    path.unlink()
                except OSError:
                    pass
            for entry in evicted:
                try:
                    self.object_path(entry.key).unlink()
                except OSError:
                    pass
            if self.version_dir.is_dir():
                self.write_index(kept)

        return {
            "dry_run": dry_run,
            "stale_version_dirs_removed": [path.name for path in stale_dirs],
            "orphaned_tmp_files": len(orphaned_tmp),
            "evicted": len(evicted),
            "evicted_bytes": sum(entry.size_bytes for entry in evicted),
            "kept": len(kept),
            "kept_bytes": sum(entry.size_bytes for entry in kept),
        }

    def clear(self) -> int:
        """Delete every entry (all format versions); returns entries removed.

        The count covers stale-version trees too — anything that is not an
        index file — so it matches what actually left the disk.
        """
        removed = 0
        for version_dir in sorted(self.root.glob("v*")):
            if not version_dir.is_dir():
                continue
            removed += sum(
                1
                for path in version_dir.rglob("*.json")
                if path.name != "index.json"
            )
            shutil.rmtree(version_dir, ignore_errors=True)
        return removed
