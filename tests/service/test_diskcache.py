"""Disk-cache robustness: every corruption mode degrades to a miss.

The store's contract — a cold analysis is always an acceptable outcome;
a crash or a stale result never is.  Each test plants a specific failure
(truncation, version skew, mis-filed record, garbage bytes) and checks
for a logged warning plus a clean miss, with the poisoned file removed.
"""

import logging
import pickle

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
