"""Robustness tests: session state across structure-changing operations."""

import pytest

from repro.editor import CommandInterpreter, PedSession
from repro.editor.session import PedError

SRC = """      program demo
      integer n
      parameter (n = 40)
      real a(n), b(n), s
      s = 0.0
      do i = 2, n
         a(i) = a(i-1) + 1.0
         b(i) = 2.0 * i
      end do
      do i = 1, n
         s = s + b(i)
      end do
      write (6, *) s
      end
"""


class TestStructureChanges:
    def test_distribution_changes_loop_count(self):
        session = PedSession(SRC)
        assert len(session.loops()) == 2
        session.select_loop(0)
        session.apply("distribute")
        assert len(session.loops()) == 3

    def test_selection_survives_distribution(self):
        session = PedSession(SRC)
        session.select_loop(0)
        session.apply("distribute")
        # Selection index still valid (clamped into the new list).
        assert session.selected_loop is not None

    def test_selection_cleared_when_out_of_range(self):
        session = PedSession(SRC)
        session.select_loop(1)
        session.apply("parallelize")
        session.select_loop(1)
        # fuse both loops into fewer; select the last, then undo/redo.
        assert session.selected_loop is not None

    def test_unit_switch_resets_selection(self):
        src = SRC + "\n      subroutine other\n      return\n      end\n"
        session = PedSession(src)
        session.select_loop(0)
        session.select_unit("other")
        assert session.loop_index is None
        assert session.loops() == []

    def test_edit_that_removes_selected_loop(self):
        session = PedSession(SRC)
        session.select_loop(1)
        lines = session.source.splitlines()
        start = next(i for i, t in enumerate(lines, 1) if "do i = 1, n" in t)
        end = next(i for i, t in enumerate(lines, 1) if "end do" in t and i > start)
        session.edit(start, end, "")
        # The removed loop leaves one loop; stale index must not crash.
        assert len(session.loops()) == 1
        assert session.selected_loop is None or session.selected_loop

    def test_assertions_scoped_per_unit(self):
        src = (
            "      program t\n      real a(50)\n      integer ip(50)\n"
            "      common /m/ ip\n"
            "      do i = 1, 50\n      a(ip(i)) = a(ip(i)) + 1.\n      end do\n      end\n"
            "      subroutine other\n      real b(50)\n      integer ip(50)\n"
            "      common /m/ ip\n"
            "      do i = 1, 50\n      b(ip(i)) = b(ip(i)) + 1.\n      end do\n      end\n"
        )
        session = PedSession(src)
        session.select_unit("t")
        session.add_assertion("distinct ip")
        ua_t = session.analysis.unit("t")
        ua_o = session.analysis.unit("other")
        assert ua_t.info_for(ua_t.loops[0].loop).parallelizable
        # The assertion was made in unit t only; other stays conservative.
        assert not ua_o.info_for(ua_o.loops[0].loop).parallelizable

    def test_multiple_undo_levels(self):
        session = PedSession(SRC)
        original = session.source
        session.select_loop(1)
        session.apply("parallelize")
        after_par = session.source
        session.select_loop(0)
        session.apply("distribute")
        session.undo()
        assert session.source == after_par
        session.undo()
        assert session.source == original

    def test_edit_renaming_the_current_unit_moves_to_the_first(self):
        from repro.editor.journal import replay_journal
        from repro.incremental import program_fingerprint
        from repro.service import PedServer
        from repro.workloads import SUITE

        server = PedServer()

        def send(**req):
            reply = server.execute(dict(req, id=0, session="s"))
            assert reply.get("error", {}).get("type") != "internal", reply
            assert reply["ok"], reply
            return reply["result"]

        try:
            send(op="open", source=SUITE["spec77"].source)
            send(op="select", loop=1)
            edited = send(op="edit", start=1, end=1, text="      program p")
            assert edited["message"].endswith(
                "warning: unit 'spec77' no longer exists; "
                "the current unit is now 'p'"
            )
            session = server.sessions["s"].session
            assert (session.current_unit, session.loop_index) == ("p", None)
            assert send(op="loops")["unit"] == "p"
            assert send(op="deps")["unit"] == "p"
            send(op="select", loop=0)
            assert send(op="assert", text="n >= 1")["message"] == (
                "assertion recorded for p: n >= 1"
            )
            assert session.assertion_texts == {"p": ["n >= 1"]}
            replayed = replay_journal(session.journal, features=session.features)
            assert (replayed.current_unit, replayed.loop_index) == ("p", 0)
            assert program_fingerprint(replayed.analysis) == (
                program_fingerprint(session.analysis)
            )
        finally:
            server.close()

    def test_reclassify_on_a_loop_an_edit_removed_is_refused(self):
        """A loop selection an edit left out of range is refused before
        anything changes: undo, the journal and the reclassifications
        stay as they were, and the server answers ``ped-error``."""

        from repro.service import PedServer

        server = PedServer()

        def send(**req):
            return server.execute(dict(req, id=0, session="s"))

        try:
            assert send(op="open", source=SRC)["ok"]
            assert send(op="select", loop=1)["ok"]
            lines = SRC.splitlines()
            start = next(i for i, t in enumerate(lines, 1) if "do i = 1, n" in t)
            end = next(
                i for i, t in enumerate(lines, 1) if "end do" in t and i > start
            )
            assert send(op="edit", start=start, end=end, text="")["ok"]
            session = server.sessions["s"].session
            assert session.loop_index == 1 and len(session.loops()) == 1
            before = (
                session.undo_depth,
                len(session.journal),
                session.overrides,
            )
            with pytest.raises(PedError, match="select a loop first"):
                session.reclassify("s", "private")
            reply = send(op="reclassify", var="s", **{"as": "private"})
            assert reply["error"]["type"] == "ped-error", reply
            after = (
                session.undo_depth,
                len(session.journal),
                session.overrides,
            )
            assert after == before == (1, 2, {})
        finally:
            server.close()

    def test_command_interpreter_survives_error_storm(self):
        ped = CommandInterpreter(PedSession(SRC))
        for cmd in ["select 99", "mark 1", "apply zap", "unit no", "edit 1", "goto x"]:
            out = ped.execute(cmd)
            assert out.startswith("error:")
        # Still functional afterwards.
        assert "[0]" in ped.execute("loops")


class TestReadmeSnippet:
    def test_quickstart_snippet_runs(self):
        from repro.core import open_session

        session = open_session(SRC)
        session.select_loop(1)
        advice = session.diagnose("parallelize")
        assert advice.ok
        session.apply("parallelize")
        assert "c$par doall" in session.source
