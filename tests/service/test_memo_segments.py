"""The shared pair-test memo as immutable segments in the store.

Each analysis writes the entries it proved as one new content-named
segment and folds in the segments it has not read yet; a reader that
lists more than :data:`MEMO_SEGMENTS` segments compacts them into one.
No record is ever read, merged and rewritten, so writers sharing one
directory need no lock and lose no entry.
"""

import sys
import threading

from repro.dependence.hierarchy import SharedPairMemo
from repro.service import DiskCache, PedServer, build_engine
from repro.service.persist import MEMO_KIND, MEMO_SEGMENTS, PersistentStore
from repro.workloads import SUITE
from repro.workloads.generator import generate_program


def _entries(tag, n=3):
    return {(tag, i): ("verdict", tag, i) for i in range(n)}


def _memo_reads(monkeypatch):
    """Record the key of every memo record read from here on."""

    reads = []
    get = DiskCache.get

    def spy(self, kind, key):
        if kind == MEMO_KIND:
            reads.append(key)
        return get(self, kind, key)

    monkeypatch.setattr(DiskCache, "get", spy)
    return reads


def test_unchanged_segments_are_listed_not_read(tmp_path, monkeypatch):
    """An analysis folds each segment once: a second analysis over an
    unchanged memo directory reads no memo record."""

    cache = tmp_path / "cache"
    source = generate_program(n_routines=4)
    build_engine(cache_dir=cache).analyze(source)
    build_engine(cache_dir=cache).analyze(generate_program(n_routines=6))

    reads = _memo_reads(monkeypatch)
    engine = build_engine(cache_dir=cache)
    engine.analyze(source)
    assert len(reads) == 2
    assert engine.stats.counter("memo.delta_absorbed") > 0
    del reads[:]
    engine.analyze(source.replace("0.01 * (x(i+1)", "0.09 * (x(i+1)", 1))
    assert reads == []


def test_a_crowded_listing_is_compacted_into_one_segment(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    written = {}
    for tag in range(MEMO_SEGMENTS + 3):
        entries = _entries(tag)
        assert PersistentStore(cache).save_memo(entries) == len(entries)
        written.update(entries)
    before = cache.keys(MEMO_KIND)
    assert len(before) == MEMO_SEGMENTS + 3

    assert PersistentStore(cache).load_memo() == written
    after = cache.keys(MEMO_KIND)
    assert len(after) == 1 and not after & before
    # The union replaced what it was built from; nothing was lost.
    assert PersistentStore(cache).load_memo() == written
    assert not list((tmp_path / "cache").rglob(".tmp-*"))


def test_compaction_caps_the_union(tmp_path, monkeypatch):
    monkeypatch.setattr(SharedPairMemo, "MAX_ENTRIES", 5)
    cache = DiskCache(tmp_path / "cache")
    for tag in range(MEMO_SEGMENTS + 1):
        PersistentStore(cache).save_memo(_entries(tag))
    PersistentStore(cache).load_memo()
    (name,) = cache.keys(MEMO_KIND)
    assert len(cache.get(MEMO_KIND, name)) == 5


def test_equal_entries_make_one_segment(tmp_path):
    """A segment is named by its content: two writers of the same
    entries leave one segment."""

    cache = DiskCache(tmp_path / "cache")
    for _ in range(2):
        assert PersistentStore(cache).save_memo(_entries("same")) == 3
    assert len(cache.keys(MEMO_KIND)) == 1


def test_a_write_in_flight_is_not_a_segment(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    PersistentStore(cache).save_memo(_entries("a"))
    (name,) = cache.keys(MEMO_KIND)
    path = cache._path(MEMO_KIND, name)
    path.with_name(f".tmp-{name[:8]}-in-flight").write_bytes(b"half a rec")
    assert cache.keys(MEMO_KIND) == {name}
    assert PersistentStore(cache).load_memo() == _entries("a")


def test_sessions_of_one_server_write_each_entry_once(tmp_path, monkeypatch):
    """A server's session engines share its store and its memo: a second
    session over the same program writes and reads no memo segment."""

    source = generate_program(n_routines=4)
    server = PedServer(max_workers=2, cache_dir=tmp_path / "cache")
    try:
        server.execute({"op": "open", "session": "a", "source": source})
        exported = server.stats.counter("memo.delta_exported")
        segments = server.store.cache.keys(MEMO_KIND)
        assert exported > 0 and len(segments) == 1
        reads = _memo_reads(monkeypatch)
        server.execute({"op": "open", "session": "b", "source": source})
        assert reads == []
        assert server.stats.counter("memo.delta_exported") == exported
        assert server.store.cache.keys(MEMO_KIND) == segments
        metrics = server.execute({"op": "metrics", "session": "b"})
        assert metrics["result"]["metrics"]["memo.persisted_entries"] == (
            exported
        )
    finally:
        server.close()


def test_both_metrics_views_agree_on_the_memo_segment_counters(tmp_path):
    """The store's memo counters are server-scoped: the server-wide and
    the session-bound ``metrics`` views report the same values."""

    server = PedServer(max_workers=2, cache_dir=tmp_path / "cache")
    try:
        server.execute(
            {"op": "open", "session": "s", "source": SUITE["onedim"].source}
        )
        views = [
            server.execute({"op": "metrics", **scope})["result"]["metrics"]
            for scope in ({}, {"session": "s"})
        ]
    finally:
        server.close()
    keys = ("memo.delta_exported", "memo.persisted_entries")
    server_wide, session_bound = ([v[k] for k in keys] for v in views)
    assert server_wide == session_bound
    assert all(server_wide), server_wide


def test_a_segment_gone_before_its_read_is_skipped(tmp_path, monkeypatch):
    """A concurrent compaction unlinks segments only after it wrote the
    union that holds them, so a reader skips one that vanished between
    its listing and its read, and still compacts the rest."""

    from repro.incremental.stats import EngineStats

    cache = DiskCache(tmp_path / "cache", stats=EngineStats())
    written = {}
    for tag in range(MEMO_SEGMENTS + 1):
        written.update(_entries(tag))
        PersistentStore(cache).save_memo(_entries(tag))
    gone = sorted(cache.keys(MEMO_KIND))[0]
    vanished = cache.get(MEMO_KIND, gone)
    keys = DiskCache.keys

    def listing_then_unlink(self, kind):
        names = keys(self, kind)
        self.discard(kind, gone)
        return names

    monkeypatch.setattr(DiskCache, "keys", listing_then_unlink)
    folded = PersistentStore(cache).load_memo()
    monkeypatch.undo()
    assert cache.stats.counter("disk.error") == 0
    assert folded == {k: v for k, v in written.items() if k not in vanished}
    assert len(cache.keys(MEMO_KIND)) == 1


def test_concurrent_writers_lose_no_entry(tmp_path):
    """Threads writing, folding and compacting segments at once — some
    through stores of their own, as separate processes do, some through
    one shared store, as a server's sessions do: a later reader folds
    every entry any of them wrote, and every record validates."""

    root = tmp_path / "cache"
    shared = PersistentStore.at(root)
    threads, rounds = 8, 12
    written = [dict() for _ in range(threads)]
    failures = []

    def writer(t):
        store = shared if t % 2 else PersistentStore.at(root)
        try:
            for r in range(rounds):
                entries = _entries((t, r))
                written[t].update(entries)
                assert store.save_memo(written[t]) == len(entries)
                store.load_memo()
        except Exception as exc:  # noqa: BLE001 — reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=writer, args=(t,)) for t in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert failures == []

    folded = PersistentStore.at(root).load_memo()
    for entries in written:
        assert entries.items() <= folded.items()
    assert len(DiskCache(root).keys(MEMO_KIND)) <= MEMO_SEGMENTS
    for name in DiskCache(root).keys(MEMO_KIND):
        assert DiskCache(root).get(MEMO_KIND, name) is not None
