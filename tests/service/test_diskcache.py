"""Disk-cache robustness: every corruption mode degrades to a miss.

The store's contract — a cold analysis is always an acceptable outcome;
a crash or a stale result never is.  Each test plants a specific failure
(truncation, version skew, mis-filed record, garbage bytes) and checks
for a logged warning plus a clean miss, with the poisoned file removed.
"""

import logging
import pickle
import shutil
from pathlib import Path

import pytest

from repro.service import DiskCache, FORMAT_VERSION


@pytest.fixture
def cache(tmp_path):
    return DiskCache(tmp_path / "cache", max_bytes=1024 * 1024)


def test_round_trip(cache):
    assert cache.put("span", "abc123", {"value": [1, 2, 3]})
    assert cache.get("span", "abc123") == {"value": [1, 2, 3]}
    assert cache.contains("span", "abc123")


def test_missing_entry_is_a_miss(cache):
    assert cache.get("span", "deadbeef") is None


def test_truncated_record_is_a_logged_miss(cache, caplog):
    cache.put("span", "abc123", {"value": "x" * 1000})
    path = cache._path("span", "abc123")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with caplog.at_level(logging.WARNING):
        assert cache.get("span", "abc123") is None
    assert any("invalid cache entry" in r.message for r in caplog.records)
    assert not path.exists()  # poisoned file removed
    assert cache.get("span", "abc123") is None  # stays a plain miss


def test_wrong_format_version_is_a_logged_miss(cache, caplog):
    cache.put("span", "abc123", {"value": 1})
    path = cache._path("span", "abc123")
    record = pickle.loads(path.read_bytes())
    record["format"] = FORMAT_VERSION + 1
    path.write_bytes(pickle.dumps(record))
    with caplog.at_level(logging.WARNING):
        assert cache.get("span", "abc123") is None
    assert any("format version" in r.message for r in caplog.records)
    assert not path.exists()


def test_misfiled_record_is_a_logged_miss(cache, caplog):
    """A record under the wrong digest (or kind) must never be served."""

    cache.put("span", "abc123", {"value": 1})
    right = cache._path("span", "abc123")
    wrong = cache._path("span", "def456")
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_bytes(right.read_bytes())
    with caplog.at_level(logging.WARNING):
        assert cache.get("span", "def456") is None
    assert any("invalid cache entry" in r.message for r in caplog.records)
    # The correctly-filed copy still works.
    assert cache.get("span", "abc123") == {"value": 1}
    # Kind mismatch likewise reads as a miss.
    kinded = cache._path("prog", "abc123")
    kinded.parent.mkdir(parents=True, exist_ok=True)
    kinded.write_bytes(right.read_bytes())
    assert cache.get("prog", "abc123") is None


def test_garbage_bytes_are_a_logged_miss(cache, caplog):
    path = cache._path("span", "abc123")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"this is not a pickle")
    with caplog.at_level(logging.WARNING):
        assert cache.get("span", "abc123") is None
    assert any("falls back to cold" in r.message for r in caplog.records)


def test_non_record_pickle_is_a_miss(cache, caplog):
    path = cache._path("span", "abc123")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps(["not", "a", "record"]))
    with caplog.at_level(logging.WARNING):
        assert cache.get("span", "abc123") is None


def test_lru_eviction_keeps_recent_entries(tmp_path):
    import os

    from repro.incremental.stats import EngineStats

    stats = EngineStats()
    payload = "x" * 4000
    cache = DiskCache(tmp_path / "c", max_bytes=10**9, stats=stats)
    for i in range(8):
        key = f"{i:02d}" + "0" * 38
        cache.put("span", key, payload)
        # mtime granularity can swallow ordering on fast filesystems;
        # force distinct, increasing timestamps.
        os.utime(cache._path("span", key), (1_000_000 + i, 1_000_000 + i))
    cache.max_bytes = 20_000
    cache._evict()
    kept = [
        i
        for i in range(8)
        if cache.contains("span", f"{i:02d}" + "0" * 38)
    ]
    assert stats.counter("disk.evict") > 0
    assert kept, "eviction must not empty the cache"
    # The survivors are exactly the most recently written entries.
    assert kept == list(range(8 - len(kept), 8))


def test_hit_refreshes_recency(tmp_path):
    import os

    cache = DiskCache(tmp_path / "c", max_bytes=14_000)
    payload = "x" * 4000
    keys = [f"{i:02d}" + "0" * 38 for i in range(3)]
    for i, key in enumerate(keys):
        cache.put("span", key, payload)
        os.utime(cache._path("span", key), (1_000_000 + i,) * 2)
    # Touch the oldest; a later eviction should spare it.
    assert cache.get("span", keys[0]) == payload
    cache.put("span", "ff" + "0" * 38, payload)
    assert cache.contains("span", keys[0])


def test_counters_feed_stats(tmp_path):
    from repro.incremental.stats import EngineStats

    stats = EngineStats()
    cache = DiskCache(tmp_path / "c", stats=stats)
    cache.put("span", "abc", 1)
    cache.get("span", "abc")
    cache.get("span", "missing")
    assert stats.counter("disk.write") == 1
    assert stats.counter("disk.hit") == 1
    assert stats.counter("disk.miss") == 1
    assert stats.counter("disk.write_bytes") == cache._path(
        "span", "abc"
    ).stat().st_size


def test_put_makes_a_shard_directory_only_when_missing(tmp_path, monkeypatch):
    """A write into an existing shard makes no directory; the first
    write into a shard, or into a root removed under the cache, makes
    what is missing and lands."""

    cache = DiskCache(tmp_path / "cache")
    assert cache.put("span", "aa0", 0)
    made = []
    real_mkdir = Path.mkdir

    def mkdir(path, *args, **kwargs):
        made.append(path)
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", mkdir)
    assert cache.put("span", "ab1", 1)
    assert cache.put("span", "ab2", 2)
    assert made == [cache._path("span", "ab1").parent]
    assert cache.get("span", "ab1") == 1
    assert cache.get("span", "ab2") == 2

    shutil.rmtree(cache.root)
    assert cache.put("span", "ab3", 3)
    assert cache.get("span", "ab3") == 3


def test_v2_format_memo_record_falls_back_cold(cache, caplog):
    """A memo segment written by an older format must be a logged miss —
    not a crash, not stale memo shapes — when read by the current
    format."""

    from repro.service.persist import MEMO_KIND, PersistentStore

    entries = {("ctx", "pair"): ("verdict",)}
    assert PersistentStore(cache).save_memo(entries) == 1
    (name,) = cache.keys(MEMO_KIND)
    path = cache._path(MEMO_KIND, name)
    record = pickle.loads(path.read_bytes())
    record["format"] = FORMAT_VERSION - 1  # i.e. a leftover older cache
    path.write_bytes(pickle.dumps(record))

    with caplog.at_level(logging.WARNING):
        assert PersistentStore(cache).load_memo() == {}  # cold, no crash
    assert any("format version" in r.message for r in caplog.records)
    assert not path.exists()  # the stale record was discarded

    # The store recovers: a fresh save round-trips under the new format.
    assert PersistentStore(cache).save_memo(entries) == 1
    assert PersistentStore(cache).load_memo() == entries


def _fill(cache, prefix, n, size=4000):
    """``n`` records of about ``size`` bytes under keys ``prefix``-k."""

    for i in range(n):
        assert cache.put("span", f"{prefix}{i:04d}" + "0" * 34, "x" * size)


def _count_walks(monkeypatch):
    """The caches that walk the store, one entry per walk."""

    walks = []
    real = DiskCache._records

    def records(self):
        walks.append(self)
        return real(self)

    monkeypatch.setattr(DiskCache, "_records", records)
    return walks


def test_a_cache_walks_the_store_when_opened_not_when_written(
    tmp_path, monkeypatch
):
    """A new cache over a store of 300 records walks it once, when it
    is opened; its writes under the budget walk nothing, and the write
    that takes the estimate past ``max_bytes`` walks it again."""

    root = tmp_path / "c"
    first = DiskCache(root, max_bytes=10**9)
    _fill(first, "aa", 300, size=100)
    _fill(first, "ab", 1)
    stored = sum(size for _, size, _ in first._records())
    record = first._path("span", "ab0000" + "0" * 34).stat().st_size
    walks = _count_walks(monkeypatch)
    cache = DiskCache(root, max_bytes=stored + 65 * record)
    assert walks == [cache]
    _fill(cache, "bb", 65)
    assert walks == [cache]
    _fill(cache, "cc", 1)
    assert walks == [cache, cache]


def test_caches_that_each_write_little_keep_an_over_budget_store_bounded(
    tmp_path,
):
    """A store already twice over budget, then five caches in turn, each
    writing 1% of the budget: the first evicts at once, and the store
    ends within ``max_bytes``."""

    import os

    from repro.incremental.stats import EngineStats

    budget = 400_000
    root = tmp_path / "c"
    _fill(DiskCache(root, max_bytes=10**9), "aa", 200)
    for i, (path, _, _) in enumerate(sorted(DiskCache(root)._records())):
        os.utime(path, (1_000_000 + i,) * 2)
    stats = EngineStats()
    for k in range(5):
        _fill(DiskCache(root, max_bytes=budget, stats=stats), f"b{k}", 1)
    assert stats.counter("disk.evict") > 0
    assert sum(size for _, size, _ in DiskCache(root)._records()) <= budget


def test_second_cache_evicts_a_store_it_fills_past_the_budget(tmp_path):
    """One cache fills 90% of the budget; a second cache over the same
    store writes 30% more.  The second evicts the oldest records until
    the store fits again."""

    import os

    from repro.incremental.stats import EngineStats

    budget = 400_000
    root = tmp_path / "c"
    first = DiskCache(root, max_bytes=budget)
    _fill(first, "aa", 90)
    for i, (path, _, _) in enumerate(sorted(first._records())):
        os.utime(path, (1_000_000 + i,) * 2)
    stats = EngineStats()
    second = DiskCache(root, max_bytes=budget, stats=stats)
    _fill(second, "bb", 30)
    sizes = [size for _, size, _ in second._records()]
    assert stats.counter("disk.evict") > 0
    assert sum(sizes) <= budget
    assert all(second.contains("span", f"bb{i:04d}" + "0" * 34) for i in range(30))
    assert not first.contains("span", "aa0000" + "0" * 34)
