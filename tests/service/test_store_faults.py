"""A store write that fails during a durable edit (disk full).

Persistence is optional: when a unit record or the program manifest
cannot be written, the write reports failure and leaves no temp file,
the edit's reply and fingerprint are those of a server without a store,
and a new server over the same directory restores and reopens the
session to the fingerprint of a cold analysis.
"""

import errno
import os

import pytest

from repro.incremental import AnalysisEngine
from repro.incremental.fingerprint import fingerprint_digest
from repro.service import DiskCache, PedServer
from repro.service import diskcache
from repro.service.persist import PROG_KIND, UNIT_KIND
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


@pytest.mark.parametrize("stage", ["write", "replace"])
@pytest.mark.parametrize("kind", [UNIT_KIND, PROG_KIND])
def test_disk_full_during_a_durable_edit(tmp_path, monkeypatch, kind, stage):
    storeless = PedServer(max_workers=2)
    try:
        expected = _edit_on(storeless)
        expected_fp = _ok(storeless.execute({"op": "fingerprint", "session": "s"}))
    finally:
        storeless.close()

    cache = tmp_path / "cache"
    server = PedServer(max_workers=2, cache_dir=cache)
    puts = []
    put = DiskCache.put

    def spy(self, record_kind, key, payload):
        ok = put(self, record_kind, key, payload)
        puts.append((record_kind, ok))
        return ok

    try:
        _ok(server.execute({"op": "open", "session": "s", "source": SOURCE}))
        errors = server.stats.counter("disk.error")
        monkeypatch.setattr(DiskCache, "put", spy)
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
