"""Atomic cell claims with heartbeat-refreshed leases.

One claim file per in-flight cell, living next to the manifest::

    <store>/v<N>/cluster/<sweep_id>/claims/<cell_key>.claim

Claiming is a single ``open(O_CREAT | O_EXCL)`` — the one filesystem
operation that is atomic across processes *and* across hosts sharing the
directory — so exactly one worker wins a cell no matter how many race for
it.  The file's mtime is the lease: the holder refreshes it with
``os.utime`` every few seconds (a background heartbeat thread, so a long
simulation never lets the lease lapse), and a claim whose mtime is older
than its recorded ``lease_seconds`` is *expired* — its holder is presumed
dead, and any other worker may steal the cell: unlink the expired file and
race a fresh ``O_EXCL`` create, which again exactly one stealer wins.

The steal path has the same benign race as the store's index lock: a holder
that was merely stalled (not dead) can have its claim broken and the cell
simulated twice.  That is safe by construction — cells are deterministic
and content-addressed, so duplicate executions write byte-identical objects
under the same key and the store's atomic ``os.replace`` makes the second
write a no-op in effect.  Leases are therefore purely a *work-saving*
mechanism; correctness never depends on mutual exclusion holding.

Claims are released (unlinked) when the cell's result lands in the store;
a crashed worker's claims simply expire and are stolen, and ``repro cache
gc`` reaps any stragglers no worker ever came back for.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

#: Default lease duration.  Heartbeats refresh at a third of this, so a
#: worker must miss several consecutive heartbeats before it can be robbed.
DEFAULT_LEASE_SECONDS = 30.0


@dataclass(frozen=True)
class ClaimInfo:
    """One claim file, as read back for status tooling and steal decisions."""

    key: str
    worker: str
    pid: int
    host: str
    lease_seconds: float
    acquired_unix: float
    mtime: float

    def age(self, now: Optional[float] = None) -> float:
        return (now if now is not None else time.time()) - self.mtime

    def expired(self, now: Optional[float] = None) -> bool:
        return self.age(now) > self.lease_seconds


def read_claim(path: Path) -> Optional[ClaimInfo]:
    """Parse one claim file; ``None`` when it vanished or is unreadable.

    An unreadable claim (torn write, foreign tool) still reports through its
    file mtime: the caller gets a :class:`ClaimInfo` with unknown holder
    fields and the :data:`DEFAULT_LEASE_SECONDS` lease, so even garbage
    claims expire and get stolen rather than wedging a cell forever.
    """
    try:
        stat = path.stat()
    except OSError:
        return None
    key = path.name[: -len(".claim")] if path.name.endswith(".claim") else path.name
    try:
        with path.open() as handle:
            data = json.load(handle)
        return ClaimInfo(
            key=str(data.get("key", key)),
            worker=str(data.get("worker", "?")),
            pid=int(data.get("pid", -1)),
            host=str(data.get("host", "?")),
            lease_seconds=float(data.get("lease_seconds", DEFAULT_LEASE_SECONDS)),
            acquired_unix=float(data.get("acquired_unix", stat.st_mtime)),
            mtime=stat.st_mtime,
        )
    except (OSError, ValueError, TypeError):
        return ClaimInfo(
            key=key,
            worker="?",
            pid=-1,
            host="?",
            lease_seconds=DEFAULT_LEASE_SECONDS,
            acquired_unix=stat.st_mtime,
            mtime=stat.st_mtime,
        )


class ClaimSet:
    """One worker's view of a sweep's claim directory.

    Tracks the claims this worker currently holds (so the heartbeat knows
    what to refresh and :meth:`release_all` what to clean up on the way
    out).  All methods are safe to call concurrently with the heartbeat
    thread; the held-claim registry is the only shared state and it is
    lock-protected.
    """

    def __init__(
        self,
        directory: Path,
        worker: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.directory = directory
        self.worker = worker
        self.lease_seconds = lease_seconds
        self._held: Dict[str, Path] = {}
        self._lock = threading.Lock()
        # Counters for worker status reporting.
        self.claimed = 0
        self.stolen = 0
        self.released = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.claim"

    # -- acquisition -------------------------------------------------------------------

    def try_claim(self, key: str) -> bool:
        """One atomic attempt at claiming ``key``; ``True`` on the win."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        payload = {
            "key": key,
            "worker": self.worker,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "lease_seconds": self.lease_seconds,
            "acquired_unix": round(time.time(), 3),
        }
        try:
            os.write(fd, json.dumps(payload, separators=(",", ":")).encode())
        finally:
            os.close(fd)
        with self._lock:
            self._held[key] = path
        self.claimed += 1
        return True

    def try_steal(self, key: str) -> bool:
        """Break an *expired* claim on ``key`` and race to re-claim it.

        Verifies expiry immediately before the unlink to shrink the window
        in which a live-but-stalled holder gets robbed (duplicate execution
        is benign — see the module docstring — but not free).  Two stealers
        racing is fine: the loser's unlink hits ENOENT and exactly one
        ``O_EXCL`` create wins.
        """
        claim = read_claim(self.path_for(key))
        if claim is None:
            # Claim vanished: either the holder finished (the caller will see
            # the result in the store) or released; try a plain claim.
            return self.try_claim(key)
        if not claim.expired():
            return False
        try:
            self.path_for(key).unlink()
        except OSError:
            pass
        if self.try_claim(key):
            self.stolen += 1
            return True
        return False

    # -- lease maintenance -------------------------------------------------------------

    def held_keys(self) -> List[str]:
        with self._lock:
            return list(self._held)

    def refresh(self) -> int:
        """Touch every held claim's mtime (the heartbeat); returns how many."""
        with self._lock:
            paths = list(self._held.values())
        refreshed = 0
        for path in paths:
            try:
                os.utime(path)
                refreshed += 1
            except OSError:
                # Stolen out from under us (we were presumed dead).  Keep
                # going: the cell will be — harmlessly — simulated twice.
                continue
        return refreshed

    def release(self, key: str) -> None:
        """Drop our claim on ``key`` (after the result landed in the store)."""
        with self._lock:
            path = self._held.pop(key, None)
        if path is None:
            return
        try:
            path.unlink()
        except OSError:
            pass
        self.released += 1

    def release_all(self) -> None:
        for key in self.held_keys():
            self.release(key)

    def abandon(self, key: str) -> None:
        """Stop maintaining ``key``'s lease *without* unlinking the claim.

        Used for refused cells: the claim file stays behind so the cell is
        not instantly retried by every peer, but this worker stops
        heartbeating it, so it expires one lease later and another worker
        (possibly one running the right code version) can steal it.
        """
        with self._lock:
            self._held.pop(key, None)


class Heartbeat:
    """A daemon thread refreshing a :class:`ClaimSet`'s leases.

    Runs ``on_beat`` (the worker's status-file write) after each refresh, so
    liveness and progress reporting share one clock.  The interval defaults
    to a third of the lease: a holder must miss three consecutive beats —
    not one slow write — before its claims expire.
    """

    def __init__(
        self,
        claims: ClaimSet,
        interval: Optional[float] = None,
        on_beat=None,
    ) -> None:
        self.claims = claims
        self.interval = (
            interval if interval is not None else max(0.05, claims.lease_seconds / 3.0)
        )
        self.on_beat = on_beat
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name=f"repro-heartbeat-{self.claims.worker}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.claims.refresh()
            if self.on_beat is not None:
                try:
                    self.on_beat()
                except Exception:
                    # Status reporting must never kill lease maintenance.
                    pass

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "Heartbeat":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
