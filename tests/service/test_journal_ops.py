"""Protocol v7 event-sourced session ops, driven straight through
``PedServer.execute`` (no sockets): ``session.log`` paging,
``session.replay`` time travel, ``session.restore`` crash recovery,
and their validation errors.
"""

import pytest

from repro.service import PedServer
from repro.service import protocol

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)


#: One loop-carried flow edge on ``a`` plus scalar and control edges.
CARRIED = SIMPLE.replace("i = 1, 10", "i = 2, 10").replace(
    "a(i) = i", "a(i) = a(i-1) + i"
)


def _ok(reply):
    assert reply["ok"], reply.get("error")
    return reply["result"]


def _err(reply):
    assert not reply["ok"], reply
    return reply["error"]


def _mutate(srv, session="s"):
    """Open a session and run a few journaled mutations."""

    _ok(srv.execute({"op": "open", "session": session, "source": SIMPLE}))
    _ok(
        srv.execute(
            {
                "op": "edit",
                "session": session,
                "start": 4,
                "end": 4,
                "text": "         a(i) = a(i-1) + i",
            }
        )
    )
    _ok(
        srv.execute(
            {"op": "assert", "session": session, "unit": "p", "text": "i > 0"}
        )
    )
    _ok(srv.execute({"op": "undo", "session": session}))


@pytest.fixture
def server(tmp_path):
    srv = PedServer(max_workers=2, cache_dir=tmp_path / "cache")
    yield srv
    srv.close()


@pytest.fixture
def storeless():
    srv = PedServer(max_workers=2)
    yield srv
    srv.close()


class TestSessionLog:
    def test_live_log_lists_records(self, server):
        _mutate(server)
        result = _ok(server.execute({"op": "session.log", "session": "s"}))
        assert result["origin"] == "live"
        assert result["total"] == result["count"] == len(result["records"])
        ops = [r["op"] for r in result["records"]]
        assert ops[0] == "edit"
        assert "undo" in ops

    def test_paging(self, server):
        _mutate(server)
        total = _ok(server.execute({"op": "session.log", "session": "s"}))[
            "total"
        ]
        page = _ok(
            server.execute(
                {"op": "session.log", "session": "s", "start": 1, "count": 1}
            )
        )
        assert page["total"] == total
        assert page["count"] == 1
        assert page["start"] == 1

    def test_disk_origin_after_close(self, server):
        _mutate(server)
        _ok(server.execute({"op": "close", "session": "s"}))
        result = _ok(server.execute({"op": "session.log", "session": "s"}))
        assert result["origin"] == "disk"
        assert result["total"] > 0

    def test_validation(self, server):
        _mutate(server)
        err = _err(
            server.execute({"op": "session.log", "session": "s", "start": -1})
        )
        assert err["type"] == protocol.BAD_REQUEST
        err = _err(
            server.execute(
                {"op": "session.log", "session": "s", "count": "many"}
            )
        )
        assert err["type"] == protocol.BAD_REQUEST

    def test_unknown_session(self, server):
        err = _err(server.execute({"op": "session.log", "session": "ghost"}))
        assert err["type"] == protocol.UNKNOWN_SESSION


class TestSessionReplay:
    def test_full_replay_matches_live_fingerprint(self, server):
        _mutate(server)
        live = _ok(server.execute({"op": "fingerprint", "session": "s"}))
        replayed = _ok(
            server.execute({"op": "session.replay", "session": "s"})
        )
        assert replayed["fingerprint"] == live["fingerprint"]
        assert replayed["origin"] == "live"

    def test_every_prefix_is_replayable(self, server):
        _mutate(server)
        total = _ok(server.execute({"op": "session.log", "session": "s"}))[
            "total"
        ]
        seen = set()
        for upto in range(total + 1):
            result = _ok(
                server.execute(
                    {"op": "session.replay", "session": "s", "upto": upto}
                )
            )
            assert result["records"] == upto
            seen.add(result["fingerprint"])
        # The edit genuinely changed the analysis along the way.
        assert len(seen) > 1

    def test_upto_validation(self, server):
        _mutate(server)
        for bad in (-1, 10_000, "three"):
            err = _err(
                server.execute(
                    {"op": "session.replay", "session": "s", "upto": bad}
                )
            )
            assert err["type"] == protocol.BAD_REQUEST

    def test_streams_progress_events(self, server):
        _mutate(server)
        events = []

        def emit(kind, data):
            events.append((kind, data))

        _ok(
            server.execute(
                {"op": "session.replay", "session": "s", "stream": True},
                emit=emit,
            )
        )
        replays = [
            d
            for k, d in events
            if k == protocol.EV_PROGRESS and d.get("phase") == "journal.replay"
        ]
        assert replays, "expected per-record journal.replay progress"
        assert [d["record"] for d in replays] == list(range(len(replays)))

    def test_bumps_replay_counter(self, server):
        _mutate(server)
        before = server.stats.counters.get("journal.replays", 0)
        _ok(server.execute({"op": "session.replay", "session": "s"}))
        assert server.stats.counters["journal.replays"] == before + 1


class TestSessionRestore:
    def test_restore_after_close(self, server):
        _mutate(server)
        live = _ok(server.execute({"op": "fingerprint", "session": "s"}))
        _ok(server.execute({"op": "close", "session": "s"}))
        restored = _ok(
            server.execute({"op": "session.restore", "session": "s"})
        )
        assert restored["fingerprint"] == live["fingerprint"]
        assert restored["undo_depth"] == 1  # edit + assert, undo consumed one
        assert server.stats.counters["journal.restores"] == 1
        # The session is queryable again...
        loops = _ok(
            server.execute({"op": "loops", "session": "s", "unit": "p"})
        )
        assert loops["loops"]
        # ...and keeps journaling: new mutations extend the same file.
        before = _ok(server.execute({"op": "session.log", "session": "s"}))[
            "total"
        ]
        _ok(server.execute({"op": "redo", "session": "s"}))
        _ok(server.execute({"op": "close", "session": "s"}))
        after = _ok(server.execute({"op": "session.log", "session": "s"}))
        assert after["origin"] == "disk"
        assert after["total"] == before + 1

    def test_restore_refuses_open_session_without_replace(self, server):
        _mutate(server)
        err = _err(server.execute({"op": "session.restore", "session": "s"}))
        assert err["type"] == protocol.SESSION_EXISTS
        replaced = _ok(
            server.execute(
                {"op": "session.restore", "session": "s", "replace": True}
            )
        )
        assert replaced["records"] > 0

    def test_restore_without_store_is_bad_request(self, storeless):
        err = _err(
            storeless.execute({"op": "session.restore", "session": "s"})
        )
        assert err["type"] == protocol.BAD_REQUEST
        assert "cache-dir" in err["message"]

    def test_restore_unknown_session(self, server):
        err = _err(
            server.execute({"op": "session.restore", "session": "ghost"})
        )
        assert err["type"] == protocol.UNKNOWN_SESSION


class TestStorelessServer:
    def test_mutations_still_work_without_store(self, storeless):
        _mutate(storeless)
        result = _ok(storeless.execute({"op": "session.log", "session": "s"}))
        assert result["origin"] == "live"
        # But nothing persists: close drops the history.
        _ok(storeless.execute({"op": "close", "session": "s"}))
        err = _err(storeless.execute({"op": "session.log", "session": "s"}))
        assert err["type"] == protocol.UNKNOWN_SESSION


def test_metrics_report_journal_counters(server):
    _mutate(server)
    _ok(server.execute({"op": "session.replay", "session": "s"}))
    metrics = _ok(server.execute({"op": "metrics"}))["metrics"]
    assert metrics["journal.records"] > 0
    assert metrics["journal.bytes"] > 0
    assert metrics["journal.replays"] >= 1
    assert "journal.restores" in metrics
    # Session-bound snapshots overlay the server-scoped journal counters.
    bound = _ok(server.execute({"op": "metrics", "session": "s"}))["metrics"]
    assert bound["journal.records"] == metrics["journal.records"]


def test_mark_of_no_edge_is_a_ped_error_and_journals_nothing(server):
    """Edge ids are positions in the unit's edge list: ``-1`` and one
    past the last edge name no edge (``-1`` must not mean the last)."""

    _ok(server.execute({"op": "open", "session": "s", "source": CARRIED}))
    deps = _ok(
        server.execute({"op": "deps", "session": "s", "unfiltered": True})
    )["deps"]
    assert [d["id"] for d in deps] == list(range(len(deps)))
    assert len(deps) > 1
    for dep in (-1, len(deps)):
        err = _err(
            server.execute(
                {
                    "op": "mark",
                    "session": "s",
                    "dep": dep,
                    "marking": "accepted",
                }
            )
        )
        assert err["type"] == protocol.PED_ERROR
        assert err["message"] == f"no dependence #{dep} in p"
    log = _ok(server.execute({"op": "session.log", "session": "s"}))
    assert log["total"] == 0
