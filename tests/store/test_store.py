"""Unit tests for the on-disk ResultStore: round trips, index, gc, clear."""

import json
import os
from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError
from repro.core import RunConfig, architecture
from repro.core.experiment import verify_store
from repro.store import ResultStore, cell_key, default_store_root
from repro.store.store import STORE_FORMAT_VERSION
from repro.workloads.perfect_club import build_trace


@pytest.fixture(scope="module")
def ref_result():
    trace = build_trace("TRFD", scale=0.2)
    return architecture("ref").simulate(trace, RunConfig(latency=50))


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


KEY = "ab" * 32


def journal(store):
    """Every line of the index journal, parsed, in file order."""
    return [json.loads(line) for line in store.index_path.read_text().splitlines()]


def indexed(store):
    """The index as a reader sees it: the last line for each key wins."""
    return {line["key"]: line for line in journal(store)}


class TestRoundTrip:
    def test_put_then_get_restores_an_equal_result(self, store, ref_result):
        store.put(KEY, ref_result, scale=0.2)
        loaded = store.get(KEY)
        assert loaded == ref_result  # provenance fields are excluded from ==
        assert loaded.cached is True
        assert loaded.store_key == KEY
        assert ref_result.cached is False
        # No write time: an object is a function of its key, result and scale.
        meta = json.loads(store.object_path(KEY).read_text())["meta"]
        assert set(meta) == {"program", "architecture", "latency", "scale"}

    def test_get_missing_key_is_a_miss(self, store):
        assert store.get(KEY) is None

    def test_rewriting_a_cell_writes_the_same_bytes(self, store, ref_result):
        store.put(KEY, ref_result, scale=0.2)
        path = store.object_path(KEY)
        first = path.read_bytes()
        os.utime(path, (path.stat().st_atime, path.stat().st_mtime - 100))
        store.put(KEY, replace(ref_result, cached=True), scale=0.2)
        assert path.read_bytes() == first

    def test_contains_and_len(self, store, ref_result):
        assert KEY not in store and len(store) == 0
        store.put(KEY, ref_result)
        assert KEY in store and len(store) == 1

    def test_objects_are_sharded_by_key_prefix(self, store):
        path = store.object_path(KEY)
        assert path.parent.name == KEY[:2]
        assert path.name == f"{KEY}.json"
        assert store.version_dir.name == f"v{STORE_FORMAT_VERSION}"

    def test_malformed_keys_are_rejected(self, store):
        with pytest.raises(ConfigurationError, match="malformed store key"):
            store.object_path("../../../etc/passwd")

    def test_constructing_a_store_touches_no_files(self, tmp_path):
        ResultStore(tmp_path / "never")
        assert not (tmp_path / "never").exists()


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_put_repairs_it(self, store, ref_result):
        store.put(KEY, ref_result)
        store.object_path(KEY).write_text("{ torn json")
        assert store.get(KEY) is None
        store.put(KEY, ref_result)
        assert store.get(KEY) == ref_result

    def test_unreadable_result_is_a_miss_verify_calls_stale_and_put_repairs(
        self, store, ref_result
    ):
        store.put(KEY, ref_result)
        payload = json.loads(store.object_path(KEY).read_text())
        payload["result"] = {"architecture": "dva", "detail": 5}
        store.object_path(KEY).write_text(json.dumps(payload))
        assert store.get(KEY) is None
        [check] = verify_store(store)
        assert check.outcome == "stale"
        store.put(KEY, ref_result)
        assert store.get(KEY) == ref_result

    @pytest.mark.parametrize("count", [None, "12", 1.5])
    def test_a_detail_without_an_integer_total_cycles_is_a_miss(self, store, ref_result, count):
        store.put(KEY, ref_result)
        payload = json.loads(store.object_path(KEY).read_text())
        detail = payload["result"]["detail"]
        if count is None:
            del detail["total_cycles"]
        else:
            detail["total_cycles"] = count
        store.object_path(KEY).write_text(json.dumps(payload))
        assert store.get(KEY) is None

    def test_foreign_format_version_is_a_miss(self, store, ref_result):
        store.put(KEY, ref_result)
        payload = json.loads(store.object_path(KEY).read_text())
        payload["format"] = STORE_FORMAT_VERSION + 1
        store.object_path(KEY).write_text(json.dumps(payload))
        assert store.get(KEY) is None

    def test_mislabelled_entry_is_a_miss(self, store, ref_result):
        other = "cd" * 32
        store.put(KEY, ref_result)
        store.object_path(other).parent.mkdir(parents=True, exist_ok=True)
        os.rename(store.object_path(KEY), store.object_path(other))
        assert store.get(other) is None

    @pytest.mark.parametrize(
        "name, label",
        [
            pytest.param("deadbeef", "not-a-key", id="malformed-label"),
            pytest.param("deadbeef", "cd" * 32, id="other-key"),
            pytest.param("zzz", "zzz", id="malformed-name"),
        ],
    )
    def test_a_file_get_treats_as_foreign_is_no_entry(self, store, ref_result, name, label):
        store.put(KEY, ref_result)
        payload = json.loads(store.object_path(KEY).read_text())
        payload["key"] = label
        foreign = store.objects_dir / name[:2] / f"{name}.json"
        foreign.parent.mkdir(parents=True, exist_ok=True)
        foreign.write_text(json.dumps(payload))
        assert [entry.key for entry in store.entries()] == [KEY]
        assert store.stats()["entry_count"] == 1
        report = store.gc(max_age_days=0)
        assert (report["evicted"], report["kept"]) == (1, 0)
        assert journal(store) == []

    def test_a_file_in_the_wrong_bucket_is_no_entry(self, store, ref_result):
        store.put(KEY, ref_result)
        misplaced = store.objects_dir / "cd" / f"{KEY}.json"
        misplaced.parent.mkdir(parents=True)
        os.rename(store.object_path(KEY), misplaced)
        assert store.entries() == []


class TestIndexAndStats:
    def test_write_index_summarizes_the_object_tree(self, store, ref_result):
        store.put(KEY, ref_result, scale=0.2)
        path = store.write_index()
        assert path == store.version_dir / "index.jsonl"
        [entry] = journal(store)
        stat = store.object_path(KEY).stat()
        assert entry == {
            "key": KEY,
            "program": "TRFD",
            "architecture": "ref",
            "latency": 50,
            "scale": 0.2,
            "bytes": stat.st_size,
            "mtime": round(stat.st_mtime, 3),
        }

    def test_write_index_compacts_the_journal_to_one_line_per_entry(
        self, store, ref_result
    ):
        other = "cd" * 32
        for key in (KEY, other):
            store.put(key, ref_result, scale=0.2)
        for _ in range(3):
            store.update_index(
                [replace(ref_result, store_key=key) for key in (KEY, other)], scale=0.2
            )
        assert len(journal(store)) == 6
        store.write_index()
        assert sorted(line["key"] for line in journal(store)) == [KEY, other]

    def test_update_index_appends_without_a_full_rebuild(self, store, ref_result):
        other = "cd" * 32
        store.put(KEY, ref_result, scale=0.2)
        store.write_index()
        store.put(other, ref_result, scale=0.2)
        store.update_index([replace(ref_result, store_key=other)], scale=0.2)
        assert [line["key"] for line in journal(store)] == [KEY, other]
        assert indexed(store)[other]["program"] == "TRFD"

    def test_a_later_line_for_a_key_wins(self, store, ref_result):
        store.put(KEY, ref_result, scale=0.2)
        store.update_index([replace(ref_result, store_key=KEY)], scale=0.2)
        store.put(KEY, ref_result, scale=0.5)
        store.update_index([replace(ref_result, store_key=KEY)], scale=0.5)
        assert [line["scale"] for line in journal(store)] == [0.2, 0.5]
        assert indexed(store)[KEY]["scale"] == 0.5

    def test_update_index_skips_cached_and_keyless_results(self, store, ref_result):
        store.put(KEY, ref_result)
        cached = replace(ref_result, store_key=KEY, cached=True)
        store.update_index([cached, replace(ref_result, store_key=None)])
        assert not store.index_path.exists()

    def test_update_index_appends_after_a_corrupt_index(self, store, ref_result):
        store.put(KEY, ref_result)
        store.version_dir.mkdir(parents=True, exist_ok=True)
        store.index_path.write_text("{ torn")
        store.update_index([replace(ref_result, store_key=KEY)])
        assert json.loads(store.index_path.read_text().splitlines()[-1])["key"] == KEY
        store.write_index()  # the rebuild drops what no scan backs
        assert list(indexed(store)) == [KEY]

    def test_update_index_finishes_a_short_write(
        self, store, ref_result, monkeypatch
    ):
        keys = ["ab" * 32, "cd" * 32, "ef" * 32]
        for key in keys:
            store.put(key, ref_result)
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:40]))
        store.update_index([replace(ref_result, store_key=key) for key in keys])
        monkeypatch.undo()
        assert [line["key"] for line in journal(store)] == keys

    def test_write_index_removes_a_leftover_json_index(self, store, ref_result):
        store.put(KEY, ref_result)
        (store.version_dir / "index.json").write_text('{"entries": {}}')
        store.stats(refresh_index=True)
        assert not (store.version_dir / "index.json").exists()
        assert list(indexed(store)) == [KEY]

    def test_object_files_are_compact_json(self, store, ref_result):
        store.put(KEY, ref_result, scale=0.2)
        text = store.object_path(KEY).read_text()
        assert json.dumps(json.loads(text), separators=(",", ":")) == text

    def test_stats_aggregates_by_architecture(self, store, ref_result):
        store.put(KEY, ref_result)
        store.put("cd" * 32, ref_result)
        stats = store.stats()
        assert stats["entry_count"] == 2
        assert stats["by_architecture"] == {"ref": 2}
        assert stats["total_bytes"] > 0

    def test_stats_report_only_what_is_on_disk(self, store, ref_result):
        store.put(KEY, ref_result)
        assert store.get(KEY) is not None and store.get("cd" * 32) is None
        assert set(store.stats()) == {
            "root",
            "format",
            "entry_count",
            "total_bytes",
            "by_architecture",
            "stale_version_dirs",
        }

    def test_stats_can_refresh_a_stale_index(self, store, ref_result):
        store.put(KEY, ref_result)
        store.write_index()
        store.object_path(KEY).unlink()  # evicted behind the index's back
        stats = store.stats(refresh_index=True)
        assert stats["entry_count"] == 0
        assert journal(store) == []

    def test_stats_refresh_leaves_a_nonexistent_store_untouched(self, tmp_path):
        store = ResultStore(tmp_path / "never")
        assert store.stats(refresh_index=True)["entry_count"] == 0
        assert not (tmp_path / "never").exists()

    def test_entries_report_scale_and_are_oldest_first(self, store, ref_result):
        store.put(KEY, ref_result, scale=0.2)
        old = store.object_path(KEY)
        os.utime(old, (old.stat().st_atime, old.stat().st_mtime - 100))
        store.put("cd" * 32, ref_result, scale=0.4)
        entries = store.entries()
        assert [entry.key for entry in entries] == [KEY, "cd" * 32]
        assert entries[0].scale == 0.2 and entries[1].scale == 0.4


class TestEviction:
    def _age(self, store, key, days):
        path = store.object_path(key)
        stamp = path.stat().st_mtime - days * 86400
        os.utime(path, (stamp, stamp))

    def test_gc_by_age(self, store, ref_result):
        store.put(KEY, ref_result)
        store.put("cd" * 32, ref_result)
        self._age(store, KEY, days=10)
        report = store.gc(max_age_days=5)
        assert report["evicted"] == 1 and report["kept"] == 1
        assert store.get(KEY) is None
        assert store.get("cd" * 32) is not None

    def test_gc_by_size_evicts_oldest_first(self, store, ref_result):
        keys = ["aa" * 32, "bb" * 32, "cc" * 32]
        for index, key in enumerate(keys):
            store.put(key, ref_result)
            self._age(store, key, days=len(keys) - index)
        # Budget exactly the two newest entries.
        budget = sum(store.object_path(key).stat().st_size for key in keys[1:])
        report = store.gc(max_bytes=budget)
        assert report["evicted"] == 1
        assert store.get(keys[0]) is None  # the oldest went
        assert all(store.get(key) is not None for key in keys[1:])

    def test_gc_dry_run_deletes_nothing(self, store, ref_result):
        store.put(KEY, ref_result)
        report = store.gc(max_age_days=0, dry_run=True)
        assert report["evicted"] == 1 and report["dry_run"] is True
        assert store.get(KEY) is not None

    def test_gc_removes_stale_version_dirs(self, store, ref_result):
        store.put(KEY, ref_result)
        stale = store.root / "v0"
        stale.mkdir(parents=True)
        (stale / "junk.json").write_text("{}")
        report = store.gc()
        assert report["stale_version_dirs_removed"] == ["v0"]
        assert not stale.exists()
        assert store.get(KEY) is not None

    def test_gc_reclaims_orphaned_tmp_files(self, store, ref_result):
        store.put(KEY, ref_result)
        orphan = store.object_path(KEY).parent / "tmpdead.tmp"
        orphan.write_text("half-written")
        stamp = orphan.stat().st_mtime - 7200
        os.utime(orphan, (stamp, stamp))
        fresh = store.object_path(KEY).parent / "tmplive.tmp"
        fresh.write_text("in flight")
        index_orphan = store.version_dir / "tmpindex.tmp"
        index_orphan.write_text("half-written index")
        os.utime(index_orphan, (stamp, stamp))
        report = store.gc()
        assert report["orphaned_tmp_files"] == 2
        assert not orphan.exists() and not index_orphan.exists()
        assert fresh.exists()  # a recent tmp may belong to a live writer
        assert store.get(KEY) is not None

    def test_gc_rejects_negative_limits(self, store):
        with pytest.raises(ConfigurationError):
            store.gc(max_age_days=-1)
        with pytest.raises(ConfigurationError):
            store.gc(max_bytes=-1)

    def test_clear_removes_everything(self, store, ref_result):
        store.put(KEY, ref_result)
        store.write_index()
        assert store.clear() == 1
        assert len(store) == 0
        assert not store.version_dir.exists()

    def test_clear_counts_stale_version_trees_too(self, store, ref_result):
        store.put(KEY, ref_result)
        stale = store.root / "v0" / "objects"
        stale.mkdir(parents=True)
        (stale / "old-entry.json").write_text("{}")
        (store.root / "v0" / "index.json").write_text("{}")  # not an entry
        assert store.clear() == 2
        assert not (store.root / "v0").exists()


class TestDefaults:
    def test_env_var_overrides_the_default_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_store_root() == tmp_path / "elsewhere"
        assert ResultStore().root == tmp_path / "elsewhere"

    def test_default_root_falls_back_to_the_cache_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert default_store_root().name == "repro"

    def test_cell_key_feeds_object_path(self, store):
        key = cell_key("trfd", 1.0, 1, architecture("dva"), RunConfig())
        assert store.object_path(key).suffix == ".json"
