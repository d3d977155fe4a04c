"""The append-only index journal: no lost lines under concurrency.

Writers append to ``index.jsonl`` with one ``O_APPEND`` write per batch and
take no lock, so concurrent threads, store instances and processes must
each land every line whole.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core.result import RunResult
from repro.store import ResultStore

KEYS = [format(n, "02x") * 32 for n in range(16)]


def _detail(program: str, latency: int, total_cycles: int, instructions: int) -> dict:
    return {
        "program": program,
        "latency": latency,
        "total_cycles": total_cycles,
        "instructions": instructions,
        "memory_traffic_bytes": 0,
        "scalar_cache_hits": 0,
        "scalar_cache_misses": 0,
    }


def make_result(key_number: int) -> RunResult:
    return RunResult(
        "dva", _detail(f"PROG{key_number}", 1, 100 + key_number, 10), store_key=KEYS[key_number]
    )


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def indexed_keys(store):
    """The journal's keys; every line must parse on its own."""
    return {json.loads(line)["key"] for line in store.index_path.read_text().splitlines()}


class TestConcurrentAppends:
    def test_parallel_appenders_lose_no_entries(self, store):
        # Each thread writes its own object, then appends just that key.
        for number, key in enumerate(KEYS):
            store.put(key, make_result(number))

        barrier = threading.Barrier(len(KEYS))

        def append(number):
            barrier.wait()
            store.update_index([make_result(number)])

        threads = [threading.Thread(target=append, args=(number,)) for number in range(len(KEYS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        lines = store.index_path.read_text().splitlines()
        assert sorted(json.loads(line)["key"] for line in lines) == sorted(KEYS)

    def test_two_stores_on_one_directory_both_land(self, tmp_path):
        first = ResultStore(tmp_path / "cache")
        second = ResultStore(tmp_path / "cache")
        for number, key in enumerate(KEYS[:8]):
            (first if number % 2 else second).put(key, make_result(number))

        def append(store, numbers):
            for number in numbers:
                store.update_index([make_result(number)])

        threads = [
            threading.Thread(target=append, args=(first, range(1, 8, 2))),
            threading.Thread(target=append, args=(second, range(0, 8, 2))),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert indexed_keys(first) == set(KEYS[:8])

    def test_concurrent_processes_append_whole_lines(self, tmp_path):
        # Four processes, each writing 50 objects and appending them in
        # batches of five: every line must parse and every key be there.
        root = tmp_path / "cache"
        script = """
import sys
from repro.core.result import RunResult
from repro.store import ResultStore

store = ResultStore(sys.argv[1])
worker = int(sys.argv[2])
batch = []
for number in range(50):
    key = format(worker, "02x") + format(number, "062x")
    detail = {
        "program": "P" * 40, "latency": number, "total_cycles": 1, "instructions": 1,
        "memory_traffic_bytes": 0, "scalar_cache_hits": 0, "scalar_cache_misses": 0,
    }
    result = RunResult("dva", detail, store_key=key)
    store.put(key, result)
    batch.append(result)
    if len(batch) == 5:
        store.update_index(batch)
        batch = []
"""
        source = str(Path(repro.__file__).resolve().parent.parent)
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), str(worker)],
                env={**os.environ, "PYTHONPATH": source},
            )
            for worker in range(4)
        ]
        assert [worker.wait(timeout=120) for worker in workers] == [0] * 4
        store = ResultStore(root)
        lines = store.index_path.read_text().splitlines()
        assert len(lines) == 4 * 50
        expected = {
            format(worker, "02x") + format(number, "062x")
            for worker in range(4)
            for number in range(50)
        }
        assert indexed_keys(store) == expected


class TestJournalEdgeCases:
    def test_empty_written_is_a_no_op_success(self, store):
        store.update_index([])
        assert not store.index_path.exists()

    def test_a_vanished_object_is_not_indexed(self, store):
        store.put(KEYS[0], make_result(0))
        store.put(KEYS[1], make_result(1))
        store.object_path(KEYS[0]).unlink()
        store.update_index([make_result(0), make_result(1)])
        lines = store.index_path.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == [KEYS[1]]

    def test_the_store_keeps_no_lockfile(self, store):
        store.put(KEYS[0], make_result(0))
        store.update_index([make_result(0)])
        store.write_index()
        assert sorted(path.name for path in store.version_dir.iterdir()) == [
            "index.jsonl",
            "objects",
        ]
