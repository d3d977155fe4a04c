"""The persistent, content-addressed result store.

A :class:`ResultStore` maps the cache key of a sweep cell (see
:mod:`repro.store.keys`) to the cell's serialized
:class:`~repro.core.result.RunResult`.  Entries live as individual JSON
files under a versioned directory tree::

    <root>/v1/objects/<key[:2]>/<key>.json    one file per result
    <root>/v1/index.jsonl                     advisory append-only index

``<root>`` defaults to ``~/.cache/repro`` (respecting ``XDG_CACHE_HOME``)
and is overridable with the ``REPRO_CACHE_DIR`` environment variable or the
CLI's ``--store-dir``.  Every object file is self-describing — it carries
the store format version, its own key and a small metadata block (the
cell's program, architecture, latency and scale) — so the index is pure
convenience: it can always be rebuilt by scanning the object tree, and
:meth:`ResultStore.write_index` does exactly that.  An object is a pure
function of its key, result and scale: writing a cell twice, from any
process, writes the same bytes.  Entry ages come from file mtimes.

Writes are atomic (temp file + ``os.replace`` in the same directory), so a
killed sweep never leaves a torn entry, and concurrent pool workers writing
the same key simply race to an identical file.  Reads treat anything
unreadable — missing, torn by an unrelated tool, or written by a different
format version — as a miss, which the next write repairs.

The index is a journal: one compact JSON line per written cell (its key
and six summary fields), where a later line for a key wins.  Writers only
ever append, each batch with one ``write`` on an ``O_APPEND`` descriptor,
so concurrent writers need no lock and cannot drop each other's lines on a
local filesystem.  :meth:`ResultStore.write_index` compacts the journal to
one line per entry from a fresh scan.  Nothing in the package reads the
index back; it is for people and external tools.

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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.common.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover
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


def _index_line(entry: StoreEntry) -> str:
    """One line of ``index.jsonl``: the entry's key and its summary fields."""
    fields = {
        "key": entry.key,
        "program": entry.program,
        "architecture": entry.architecture,
        "latency": entry.latency,
        "scale": entry.scale,
        "bytes": entry.size_bytes,
        "mtime": round(entry.mtime, 3),
    }
    return json.dumps(fields, separators=(",", ":")) + "\n"


def _replace_atomically(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultStore:
    """A content-addressed, crash-safe store of :class:`RunResult` payloads.

    Args:
        root: directory to keep the store under; defaults to
            :func:`default_store_root`.  Created lazily on first write, so
            constructing a store (e.g. in every pool worker) is free.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_store_root()

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
        return self.version_dir / "index.jsonl"

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
        its ``store_key``.  Unreadable entries (torn files, foreign formats,
        results that do not parse) count as misses.
        """
        from repro.core.result import RunResult

        try:
            result = RunResult.from_json(self._load(key)["result"])
        except (OSError, ValueError, KeyError, TypeError, ReproError):
            return None
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
        the content, so whichever ``os.replace`` lands last installs
        identical bytes.
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
            },
            "result": replace(result, cached=False, store_key=key).to_json(),
        }
        _replace_atomically(path, json.dumps(payload, separators=(",", ":")))

    def __contains__(self, key: str) -> bool:
        return self.object_path(key).exists()

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
        """Rebuild ``index.jsonl`` from the object tree and write it atomically.

        The rebuild compacts the journal to one line per entry and deletes
        the ``index.json`` that stores written before the journal kept, so
        no stale copy outlives it.  ``repro cache stats`` and ``repro cache
        gc`` run it; nothing in the package reads the index back, so
        correctness never depends on it being fresh.  Callers that just
        scanned may pass their ``entries`` to avoid a second walk.

        The rebuild replaces the journal (temp file + ``os.replace``), so an
        :meth:`update_index` append that races it can land in the replaced
        file and be lost until the next rebuild; the objects themselves are
        on disk either way.
        """
        if entries is None:
            entries = self.entries()
        _replace_atomically(self.index_path, "".join(map(_index_line, entries)))
        (self.version_dir / "index.json").unlink(missing_ok=True)  # pre-journal index
        return self.index_path

    def update_index(self, results: Sequence[RunResult], scale: float = 1.0) -> None:
        """Append just-written results to ``index.jsonl``.

        Every cell driver calls this with the results it produced; cached
        results (already indexed when first written) and results without a
        ``store_key`` (simulated with no store) are skipped here, so callers
        pass their results as they are.  The cost is one ``stat`` per cell
        written and one ``write``, whatever the size of the store.

        The lines go out in a single ``write`` on an ``O_APPEND`` descriptor,
        which a local filesystem applies whole and in order with any other
        appender's, so concurrent writers (service batches, parallel sweeps)
        need no lock.  A journal whose last line was cut short (a writer
        killed mid-append, a full disk) gets a newline first, so the torn
        line stays alone and this batch's lines still parse; a short
        ``write`` is continued until every byte is out.  NFS gives no atomic
        append, so writers on different hosts sharing a store can interleave
        or lose lines; like an append that races :meth:`write_index`, that
        leaves the advisory index short until the next rebuild, never an
        object missing.
        """
        lines = []
        for result in results:
            key = result.store_key
            if key is None or result.cached:
                continue
            try:
                stat = self.object_path(key).stat()
            except OSError:
                continue
            entry = StoreEntry(
                key=key,
                program=result.program,
                architecture=result.architecture,
                latency=result.latency,
                scale=float(scale),
                size_bytes=stat.st_size,
                mtime=stat.st_mtime,
            )
            lines.append(_index_line(entry))
        if lines:
            fd = os.open(self.index_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    lines.insert(0, "\n")  # end a torn tail before the first line
                data = memoryview("".join(lines).encode())
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)

    def stats(self, refresh_index: bool = False) -> Dict[str, object]:
        """Aggregate numbers for ``repro cache stats`` (always a fresh scan).

        With ``refresh_index=True`` the same scan is also written out as
        ``index.jsonl`` — including when the scan came back empty, so an
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

        The count covers stale-version trees too — every ``.json`` file
        under a tree's ``objects`` directory — so it matches what actually
        left the disk.
        """
        removed = 0
        for version_dir in sorted(self.root.glob("v*")):
            if not version_dir.is_dir():
                continue
            removed += sum(1 for _ in (version_dir / "objects").rglob("*.json"))
            shutil.rmtree(version_dir, ignore_errors=True)
        return removed
