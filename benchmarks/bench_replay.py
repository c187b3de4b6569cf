"""Experiment M5 — crash recovery economics.

The durable journal's pitch: after a server dies, ``session.restore``
replays the mutation log through an engine warmed by the shared
persistent store, so getting the session back costs much less than the
cold re-analysis a journal-less design would pay.  This bench records
both sides of that trade on a scripted 8-edit session over a
60-routine workload:

* **cold** — :func:`replay_journal` on a fresh engine with no store,
  i.e. re-running the whole history from source;
* **warm** — a brand-new server process state (fresh ``PedServer``)
  over the dead server's cache dir, timing only the ``session.restore``
  op.

``replay.restore_speedup = cold / warm`` is gated in
``benchmarks/baselines.json``; the raw seconds ride along in
``benchmarks/out/replay.json`` but are never gated (they are
machine-dependent).
"""

import json
import statistics
import time

import pytest

from repro.editor.journal import SessionJournal, replay_journal
from repro.incremental.fingerprint import fingerprint_digest
from repro.service import PedServer
from repro.service.persist import PersistentStore
from repro.workloads.generator import generate_program

from conftest import save_artifact

WORK_SUB = (
    "      subroutine benchwork(a, b, n)\n"
    "      real a(100), b(100)\n"
    "      do i = 1, n\n"
    "         a(i) = a(i) + 1.0\n"
    "      enddo\n"
    "      do j = 1, n\n"
    "         s = b(j)\n"
    "         b(j) = s * 2.0\n"
    "      enddo\n"
    "      end\n"
)

N_EDITS = 8


def _ok(reply):
    assert reply["ok"], reply.get("error")
    return reply["result"]


def _source():
    return generate_program(n_routines=60) + WORK_SUB


def _edit_line(source):
    return source.splitlines().index("         a(i) = a(i) + 1.0") + 1


def _record_session(cache_dir, source, line):
    """The doomed server: open, run the 8 scripted edits, die
    (gracefully here — the SIGKILL variant is covered by the restore
    tests; the journal contents are identical either way)."""

    srv = PedServer(max_workers=4, cache_dir=cache_dir)
    try:
        _ok(srv.execute({"op": "open", "session": "bench", "source": source}))
        for i in range(N_EDITS):
            text = f"         a(i) = a(i) + {i + 2}.0"
            _ok(
                srv.execute(
                    {
                        "op": "edit",
                        "session": "bench",
                        "start": line,
                        "end": line,
                        "text": text,
                    }
                )
            )
        return _ok(srv.execute({"op": "fingerprint", "session": "bench"}))[
            "fingerprint"
        ]
    finally:
        srv.close()


def test_restore_speedup(benchmark, tmp_path):
    cache_dir = tmp_path / "cache"
    source = _source()
    line = _edit_line(source)
    live_fp = _record_session(cache_dir, source, line)

    payload = PersistentStore.at(cache_dir).journal("bench").load()
    assert payload is not None, "the journal must survive the server"
    journal = SessionJournal.from_wire(payload)
    assert len(journal) == N_EDITS

    def cold_replay():
        t0 = time.perf_counter()
        session = replay_journal(journal)
        elapsed = time.perf_counter() - t0
        digest = fingerprint_digest(session.analysis)
        return elapsed, digest

    def warm_restore():
        srv = PedServer(max_workers=4, cache_dir=cache_dir)
        try:
            t0 = time.perf_counter()
            result = _ok(
                srv.execute({"op": "session.restore", "session": "bench"})
            )
            elapsed = time.perf_counter() - t0
            return elapsed, result["fingerprint"]
        finally:
            srv.close()

    colds, warms = [], []
    for _ in range(3):
        cold_s, cold_fp = cold_replay()
        warm_s, warm_fp = warm_restore()
        # Every path lands on the byte-identical state the dead server
        # last acknowledged.
        assert cold_fp == warm_fp == live_fp
        colds.append(cold_s)
        warms.append(warm_s)

    cold_s = statistics.median(colds)
    warm_s = statistics.median(warms)
    speedup = cold_s / warm_s
    assert speedup > 1.0, (
        f"warm restore ({warm_s:.3f}s) must beat cold re-analysis "
        f"({cold_s:.3f}s)"
    )

    save_artifact(
        "replay.json",
        json.dumps(
            {
                "routines": 61,
                "edits": N_EDITS,
                "journal_records": len(journal),
                "cold_replay_s": cold_s,
                "warm_restore_s": warm_s,
                "restore_speedup": speedup,
            },
            indent=2,
        )
        + "\n",
    )

    benchmark.pedantic(
        warm_restore, rounds=3, iterations=1, warmup_rounds=0
    )
