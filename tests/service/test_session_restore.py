"""Crash-safe session restore: SIGKILL a real server mid-session, start
a fresh one over the same cache dir, and get the session back.

This is the acceptance scenario for the durable journal: every
*acknowledged* mutation survives the kill (each append is flushed before
the reply leaves the server), so the restored session's analysis
fingerprint, program text and undo depth all match what the dead server
last confirmed.
"""

import os
import signal
import sys

from repro.service import PedClient

from ..serving import child_env

SOURCE = (
    "      program main\n"
    "      real a(100), b(100)\n"
    "      call work(a, b, 100)\n"
    "      end\n"
    "      subroutine work(a, b, n)\n"
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


def _spawn_server(cache_dir):
    return PedClient.spawn(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--stdio",
            "--cache-dir",
            str(cache_dir),
        ],
        env=child_env(),
    )


def test_sigkill_then_restore_from_journal(tmp_path):
    cache_dir = tmp_path / "cache"

    first = _spawn_server(cache_dir)
    proc = first.process
    try:
        first.request("open", session="work", source=SOURCE, wait=300)
        first.request(
            "edit",
            session="work",
            start=8,
            end=8,
            text="         a(i) = a(i) + 2.0",
            wait=60,
        )
        first.request(
            "assert", session="work", unit="work", text="n >= 1", wait=60
        )
        first.request("undo", session="work", wait=60)
        fp_before = first.request("fingerprint", session="work", wait=60)
        log_before = first.session_log("work", wait=60)
        assert log_before["origin"] == "live"
    finally:
        # No goodbye: the server dies with the session open and the
        # journal file's fd still held.
        proc.kill()  # SIGKILL
        proc.wait(timeout=10)
        try:
            first.close()
        except Exception:
            pass

    second = _spawn_server(cache_dir)
    try:
        restored = second.session_restore("work", wait=300)
        assert restored["records"] == log_before["total"]
        assert restored["fingerprint"] == fp_before["fingerprint"]
        assert restored["undo_depth"] == 1
        assert restored["redo_depth"] == 1

        # Time travel still works from the restored journal...
        replayed = second.session_replay("work", wait=300)
        assert replayed["fingerprint"] == fp_before["fingerprint"]

        # ...and so do new mutations, which keep extending the journal.
        redone = second.request("redo", session="work", wait=60)
        assert "redone" in redone["message"]
        log_after = second.session_log("work", wait=60)
        assert log_after["total"] == log_before["total"] + 1
        assert log_after["records"][-1]["op"] == "redo"
    finally:
        second.close()


def test_sigkill_mid_request_leaves_replayable_journal(tmp_path):
    """Even a kill with no quiesce leaves a loadable journal: the loader
    drops at most a truncated trailing record."""

    cache_dir = tmp_path / "cache"
    first = _spawn_server(cache_dir)
    proc = first.process
    try:
        first.request("open", session="w", source=SOURCE, wait=300)
        for i in range(3):
            first.request(
                "edit",
                session="w",
                start=8,
                end=8,
                text=f"         a(i) = a(i) + {i + 2}.0",
                wait=60,
            )
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        try:
            first.close()
        except Exception:
            pass

    second = _spawn_server(cache_dir)
    try:
        log = second.session_log("w", wait=60)
        assert log["origin"] == "disk"
        assert [r["op"] for r in log["records"]] == ["edit"] * 3
        restored = second.session_restore("w", wait=300)
        assert restored["records"] == 3
    finally:
        second.close()
