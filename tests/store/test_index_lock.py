"""The cooperative index lock: atomic merges under concurrency.

Regression suite for the advisory-index merge race: before the lock,
concurrent ``update_index`` callers could each read the same index
snapshot, merge their own keys, and overwrite each other's entries.
"""

import json
import os
import threading
import time

import pytest

from repro.core.result import RunResult
from repro.store import ResultStore

KEYS = [format(n, "02x") * 32 for n in range(16)]


def make_result(key_number: int) -> RunResult:
    return RunResult(
        architecture="dva",
        program=f"PROG{key_number}",
        latency=1,
        total_cycles=100 + key_number,
        instructions=10,
        store_key=KEYS[key_number],
    )


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def indexed_keys(store):
    return set(json.loads(store.index_path.read_text())["entries"])


class TestConcurrentMerges:
    def test_parallel_mergers_lose_no_entries(self, store):
        # Each thread writes its own object then merges just that key.
        # Without read-modify-write atomicity, late writers clobber early
        # ones and keys vanish from the index.
        for number, key in enumerate(KEYS):
            store.put(key, make_result(number))

        barrier = threading.Barrier(len(KEYS))
        outcomes = []
        lock = threading.Lock()

        def merge(number, key):
            barrier.wait()
            ok = store.update_index([make_result(number)])
            with lock:
                outcomes.append(ok)

        threads = [
            threading.Thread(target=merge, args=(number, key))
            for number, key in enumerate(KEYS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert all(outcomes)
        assert indexed_keys(store) == set(KEYS)
        assert store.index_merges == len(KEYS)
        assert store.index_merges_skipped == 0

    def test_two_stores_on_one_directory_serialize(self, tmp_path):
        # The lock is a file, so it also serializes separate ResultStore
        # instances (separate services, separate processes in spirit).
        first = ResultStore(tmp_path / "cache")
        second = ResultStore(tmp_path / "cache")
        for number, key in enumerate(KEYS[:8]):
            (first if number % 2 else second).put(key, make_result(number))

        def merge(store, pairs):
            for number, key in pairs:
                store.update_index([make_result(number)])

        pairs = list(enumerate(KEYS[:8]))
        threads = [
            threading.Thread(target=merge, args=(first, pairs[1::2])),
            threading.Thread(target=merge, args=(second, pairs[0::2])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert indexed_keys(first) == set(KEYS[:8])


class TestLockEdgeCases:
    def test_empty_written_is_a_no_op_success(self, store):
        assert store.update_index([]) is True
        assert not store.index_path.exists()

    def test_held_lock_times_out_into_a_skipped_merge(self, store):
        store.put(KEYS[0], make_result(0))
        store.index_lock_timeout = 0.05
        store.version_dir.mkdir(parents=True, exist_ok=True)
        store.index_lock_path.write_text("held elsewhere")
        try:
            assert store.update_index([make_result(0)]) is False
        finally:
            store.index_lock_path.unlink()
        assert store.index_merges_skipped == 1
        assert not store.index_path.exists()  # skipped, never half-written
        assert store.stats()["process_counters"]["index_merges_skipped"] == 1

    def test_stale_lock_is_broken_and_the_merge_proceeds(self, store):
        store.put(KEYS[0], make_result(0))
        store.version_dir.mkdir(parents=True, exist_ok=True)
        store.index_lock_path.write_text("crashed holder")
        ancient = time.time() - 2 * store.index_lock_stale_after
        os.utime(store.index_lock_path, (ancient, ancient))
        assert store.update_index([make_result(0)]) is True
        assert indexed_keys(store) == {KEYS[0]}
        assert not store.index_lock_path.exists()  # released after the merge

    def test_lock_is_released_even_when_the_merge_raises(self, store, monkeypatch):
        store.put(KEYS[0], make_result(0))
        monkeypatch.setattr(
            store, "_write_index_payload", lambda entries: (_ for _ in ()).throw(OSError("disk"))
        )
        with pytest.raises(OSError):
            store.update_index([make_result(0)])
        assert not store.index_lock_path.exists()

    def test_full_rebuild_proceeds_despite_a_held_lock(self, store):
        # write_index is authoritative maintenance: a stuck lock slows it
        # down (one timeout) but never blocks the rebuild.
        store.put(KEYS[0], make_result(0))
        store.index_lock_timeout = 0.05
        store.version_dir.mkdir(parents=True, exist_ok=True)
        store.index_lock_path.write_text("held elsewhere")
        try:
            store.write_index()
        finally:
            store.index_lock_path.unlink(missing_ok=True)
        assert indexed_keys(store) == {KEYS[0]}
