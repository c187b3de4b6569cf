"""A store write that fails during a durable edit (disk full), and memo
segments that fail to write or to read.

Persistence is optional: when a unit record or the program manifest
cannot be written, the write reports failure and leaves no temp file,
the edit's reply and fingerprint are those of a server without a store,
and a new server over the same directory restores and reopens the
session to the fingerprint of a cold analysis.  A memo segment that
cannot be written, is truncated, or vanishes between the listing and
the read costs only its own entries; the good segments are still folded.
"""

import errno
import os

import pytest

from repro.incremental import AnalysisEngine
from repro.incremental.stats import EngineStats
from repro.incremental.fingerprint import fingerprint_digest
from repro.service import DiskCache, PedServer, build_engine
from repro.service import diskcache
from repro.service.persist import (
    MEMO_KIND,
    MEMO_SEGMENTS,
    PROG_KIND,
    UNIT_KIND,
    PersistentStore,
)
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

SOURCE = generate_program(n_routines=6)
_LINES = SOURCE.splitlines()
_AT = next(i for i, t in enumerate(_LINES, 1) if "0.01 * (x(i+1)" in t)
EDIT = {
    "op": "edit",
    "session": "s",
    "start": _AT,
    "end": _AT,
    "text": _LINES[_AT - 1].replace("0.01", "0.09"),
}
EDITED = "\n".join(_LINES[: _AT - 1] + [EDIT["text"]] + _LINES[_AT:]) + "\n"


def _disk_full():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullFile:
    """A temp file that takes half of what is written, then reports the
    disk full."""

    def __init__(self, fh) -> None:
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def write(self, blob) -> int:
        self._fh.write(blob[: len(blob) // 2])
        raise _disk_full()


def _fail_writes(monkeypatch, directory, stage) -> None:
    """Make every record write under ``directory`` raise ENOSPC at
    ``stage``: the temp-file ``write`` or the ``replace`` into place."""

    target = str(directory)
    if stage == "replace":
        real_replace = os.replace

        def replace(src, dst, *args, **kwargs):
            if str(dst).startswith(target):
                raise _disk_full()
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(diskcache.os, "replace", replace)
        return
    doomed = set()
    real_mkstemp = diskcache.tempfile.mkstemp
    real_fdopen = os.fdopen

    def mkstemp(*args, dir=None, **kwargs):
        fd, path = real_mkstemp(*args, dir=dir, **kwargs)
        if str(dir).startswith(target):
            doomed.add(fd)
        return fd, path

    def fdopen(fd, *args, **kwargs):
        fh = real_fdopen(fd, *args, **kwargs)
        if fd in doomed:
            doomed.discard(fd)
            return _FullFile(fh)
        return fh

    monkeypatch.setattr(diskcache.tempfile, "mkstemp", mkstemp)
    monkeypatch.setattr(diskcache.os, "fdopen", fdopen)


def _ok(reply):
    assert reply["ok"], reply.get("error")
    return reply["result"]


def _edit_on(server):
    _ok(server.execute({"op": "open", "session": "s", "source": SOURCE}))
    return server.execute(EDIT)


def _storeless_edit():
    """The edit's reply and the fingerprint after it, without a store."""

    storeless = PedServer(max_workers=2)
    try:
        reply = _edit_on(storeless)
        return reply, _ok(storeless.execute({"op": "fingerprint", "session": "s"}))
    finally:
        storeless.close()


def _spy_puts(monkeypatch):
    """Record ``(kind, ok)`` for every record write from here on."""

    puts = []
    put = DiskCache.put

    def spy(self, record_kind, key, payload):
        ok = put(self, record_kind, key, payload)
        puts.append((record_kind, ok))
        return ok

    monkeypatch.setattr(DiskCache, "put", spy)
    return puts


@pytest.mark.parametrize("stage", ["write", "replace"])
@pytest.mark.parametrize("kind", [UNIT_KIND, PROG_KIND])
def test_disk_full_during_a_durable_edit(tmp_path, monkeypatch, kind, stage):
    expected, expected_fp = _storeless_edit()

    cache = tmp_path / "cache"
    server = PedServer(max_workers=2, cache_dir=cache)
    try:
        _ok(server.execute({"op": "open", "session": "s", "source": SOURCE}))
        errors = server.stats.counter("disk.error")
        puts = _spy_puts(monkeypatch)
        _fail_writes(monkeypatch, cache / kind, stage)
        reply = server.execute(EDIT)
        monkeypatch.undo()
        fp = _ok(server.execute({"op": "fingerprint", "session": "s"}))
    finally:
        server.close()
    assert (kind, False) in puts
    assert server.stats.counter("disk.error") > errors
    assert not list(cache.rglob(".tmp-*"))
    assert reply == expected
    assert fp == expected_fp

    cold = fingerprint_digest(AnalysisEngine().analyze(EDITED)[1])
    assert fp["fingerprint"] == cold
    fresh = PedServer(max_workers=2, cache_dir=cache)
    try:
        restored = _ok(fresh.execute({"op": "session.restore", "session": "s"}))
        _ok(fresh.execute({"op": "open", "session": "t", "source": EDITED}))
        reopened = _ok(fresh.execute({"op": "fingerprint", "session": "t"}))
    finally:
        fresh.close()
    assert restored["fingerprint"] == cold
    assert reopened["fingerprint"] == cold


@pytest.mark.parametrize("fault", ["write", "replace", "truncated", "vanished"])
def test_memo_segment_fault(tmp_path, monkeypatch, fault):
    """Three suite programs leave one good segment each; then the open
    of a server over them meets one fault: ENOSPC at its own segment's
    temp-file write or ``os.replace`` (the edit's analysis writes the
    entries again), a truncated segment, or a segment unlinked between
    the listing and the read, as a concurrent compaction would."""

    expected, expected_fp = _storeless_edit()
    cache = tmp_path / "cache"
    for name in ("arc3d", "interior", "ocean"):
        build_engine(cache_dir=cache).analyze(SUITE[name].source)
    disk = DiskCache(cache)
    good = {name: disk.get(MEMO_KIND, name) for name in disk.keys(MEMO_KIND)}
    assert len(good) == 3
    bad = sorted(good)[0]
    if fault == "truncated":
        path = disk._path(MEMO_KIND, bad)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif fault == "vanished":
        keys = DiskCache.keys

        def listing_then_unlink(self, kind):
            names = keys(self, kind)
            self.discard(kind, bad)
            return names

        monkeypatch.setattr(DiskCache, "keys", listing_then_unlink)
    else:
        bad = None
        puts = _spy_puts(monkeypatch)
        _fail_writes(monkeypatch, cache / MEMO_KIND, fault)

    server = PedServer(max_workers=2, cache_dir=cache)
    try:
        _ok(server.execute({"op": "open", "session": "s", "source": SOURCE}))
        monkeypatch.undo()
        reply = server.execute(EDIT)
        fp = _ok(server.execute({"op": "fingerprint", "session": "s"}))
    finally:
        server.close()
    assert reply == expected
    assert fp == expected_fp
    if bad is None:
        assert (MEMO_KIND, False) in puts
    assert server.stats.counter("disk.error") == (0 if fault == "vanished" else 1)
    assert not list(cache.rglob(".tmp-*"))
    held = server.shared_memo.entries
    for name, entries in good.items():
        if name != bad:
            assert entries.keys() <= held.keys()
    # Every entry the server held reached a segment.
    assert held.keys() <= PersistentStore.at(cache).load_memo().keys()


@pytest.mark.parametrize("stage", ["write", "replace"])
def test_disk_full_during_a_compaction(tmp_path, monkeypatch, stage):
    """A compaction whose union cannot be written unlinks nothing: every
    segment and entry stays, and the next reader compacts them."""

    cache = tmp_path / "cache"
    disk = DiskCache(cache, stats=EngineStats())
    written = {}
    for tag in range(MEMO_SEGMENTS + 1):
        entries = {(tag, i): ("verdict", tag, i) for i in range(3)}
        PersistentStore(disk).save_memo(entries)
        written.update(entries)
    segments = disk.keys(MEMO_KIND)
    _fail_writes(monkeypatch, cache / MEMO_KIND, stage)
    assert PersistentStore(disk).load_memo() == written
    monkeypatch.undo()
    assert disk.stats.counter("disk.error") == 1
    assert disk.keys(MEMO_KIND) == segments
    assert not list(cache.rglob(".tmp-*"))
    assert PersistentStore(disk).load_memo() == written
    assert len(disk.keys(MEMO_KIND)) == 1
