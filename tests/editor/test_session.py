"""Unit tests for PedSession: selection, mutation, undo, reanalysis."""

import pytest

from repro.editor.session import PedError, PedSession
from repro.interproc import FeatureSet

SRC = """      program demo
      integer n
      parameter (n = 60)
      real a(n), b(n), s
      s = 0.0
      do i = 2, n
         a(i) = a(i-1) + 1.0
      end do
      do i = 1, n
         b(i) = a(i) * 2.0
         s = s + b(i)
      end do
      write (6, *) s
      end
"""


@pytest.fixture
def session():
    return PedSession(SRC)


class TestSelection:
    def test_initial_unit(self, session):
        assert session.current_unit == "demo"

    def test_select_unknown_unit(self, session):
        with pytest.raises(PedError):
            session.select_unit("nosuch")

    def test_loops_listed(self, session):
        assert len(session.loops()) == 2

    def test_select_loop(self, session):
        session.select_loop(1)
        assert session.selected_loop is session.loops()[1].loop

    def test_select_out_of_range(self, session):
        with pytest.raises(PedError):
            session.select_loop(5)

    def test_selected_info(self, session):
        session.select_loop(0)
        info = session.selected_info
        assert not info.parallelizable

    def test_dependences_scoped_to_loop(self, session):
        session.select_loop(0)
        deps0 = session.dependences()
        session.select_loop(1)
        deps1 = session.dependences()
        vars0 = {d.var for d in deps0}
        vars1 = {d.var for d in deps1}
        assert "a" in vars0
        assert "s" in vars1


class TestMarking:
    def test_mark_pending_rejected(self, session):
        session.select_loop(1)
        pend = [d for d in session.dependences() if d.marking == "pending"]
        assert pend
        msg = session.mark_dependence(pend[0].id, "rejected")
        assert "rejected" in msg

    def test_marking_survives_reanalysis(self, session):
        session.select_loop(1)
        pend = [d for d in session.dependences() if d.marking == "pending"]
        dep = pend[0]
        key = (dep.kind, dep.var, dep.src_line, dep.dst_line)
        session.mark_dependence(dep.id, "rejected")
        session.reanalyze()
        session.select_loop(1)
        match = [
            d
            for d in session.dependences(unfiltered=True)
            if (d.kind, d.var, d.src_line, d.dst_line) == key
        ]
        assert match and match[0].marking == "rejected"

    def test_mark_then_unmark_runs_no_parse(self, session):
        """A marking refreshes verdicts without entering the engine."""

        session.select_loop(1)
        dep = next(d for d in session.dependences() if d.marking == "pending")
        runs = session.engine.stats.stage("parse").runs
        session.mark_dependence(dep.id, "accepted")
        session.mark_dependence(dep.id, "pending")
        assert session.engine.stats.stage("parse").runs == runs

    def test_proven_cannot_be_rejected(self, session):
        session.select_loop(0)
        proven = [d for d in session.dependences() if d.marking == "proven"]
        assert proven
        with pytest.raises(PedError):
            session.mark_dependence(proven[0].id, "rejected")

    def test_rejecting_unlocks_parallelization(self):
        # A pending (symbolic) dependence the user knows is false.
        src = (
            "      program t\n      real a(50)\n      do i = 1, 20\n"
            "      a(i) = a(i + m) + 1.0\n      end do\n      end\n"
        )
        session = PedSession(src)
        session.select_loop(0)
        assert not session.selected_info.parallelizable
        for dep in list(session.dependences()):
            if dep.marking == "pending" and dep.loop_carried:
                session.mark_dependence(dep.id, "rejected")
        assert session.selected_info.parallelizable


class TestAssertionsAndOverrides:
    def test_assertion_reanalyzes(self):
        src = (
            "      program t\n      real a(50)\n      integer ip(50)\n"
            "      do i = 1, 50\n      a(ip(i)) = a(ip(i)) + 1.0\n      end do\n      end\n"
        )
        session = PedSession(src)
        session.select_loop(0)
        assert not session.selected_info.parallelizable
        session.add_assertion("distinct ip")
        session.select_loop(0)
        assert session.selected_info.parallelizable

    def test_bad_assertion_rejected(self, session):
        with pytest.raises(PedError):
            session.add_assertion("what even is this")

    def test_reclassify_private(self):
        src = (
            "      program t\n      real a(50), b(50)\n      do i = 1, 50\n"
            "      b(i) = t\n      t = a(i)\n      end do\n      end\n"
        )
        session = PedSession(src)
        session.select_loop(0)
        assert not session.selected_info.parallelizable
        session.reclassify("t", "private")
        session.select_loop(0)
        assert session.selected_info.parallelizable

    def test_reclassify_requires_selection(self, session):
        session.loop_index = None
        with pytest.raises(PedError):
            session.reclassify("s", "private")


class TestTransformsAndEdit:
    def test_apply_parallelize(self, session):
        session.select_loop(1)
        msg = session.apply("parallelize")
        assert "DOALL" in msg
        assert "c$par doall" in session.source

    def test_apply_unsafe_raises_and_rolls_back(self, session):
        before = session.source
        session.select_loop(0)
        with pytest.raises(PedError):
            session.apply("parallelize")
        assert session.source == before

    def test_edit_replaces_lines(self, session):
        lines = session.source.splitlines()
        target = next(i for i, t in enumerate(lines, 1) if "s = 0.0" in t)
        session.edit(target, target, "      s = 1.0")
        assert "s = 1.0" in session.source

    def test_edit_syntax_error_rolled_back(self, session):
        before = session.source
        with pytest.raises(PedError):
            session.edit(5, 5, "      this is (((not fortran")
        assert session.source == before

    def test_edit_out_of_range(self, session):
        last = len(session.source.splitlines())
        message = f"line range 999-1000 outside 1-{last}"
        with pytest.raises(PedError, match=message):
            session.edit(999, 1000, "x = 1")
        assert session.undo_depth == 0
        assert len(session.journal) == 0


class TestUndoRedo:
    def test_undo_transformation(self, session):
        before = session.source
        session.select_loop(1)
        session.apply("parallelize")
        assert session.source != before
        session.undo()
        assert session.source == before

    def test_redo(self, session):
        session.select_loop(1)
        session.apply("parallelize")
        after = session.source
        session.undo()
        session.redo()
        assert session.source == after

    def test_undo_empty_raises(self, session):
        with pytest.raises(PedError):
            session.undo()

    def test_undo_assertion(self):
        src = (
            "      program t\n      real a(50)\n      integer ip(50)\n"
            "      do i = 1, 50\n      a(ip(i)) = a(ip(i)) + 1.0\n      end do\n      end\n"
        )
        session = PedSession(src)
        session.add_assertion("distinct ip")
        session.undo()
        session.select_loop(0)
        assert not session.selected_info.parallelizable

    def test_new_action_clears_redo(self, session):
        session.select_loop(1)
        session.apply("parallelize")
        session.undo()
        session.select_loop(1)
        session.apply("privatize", var="i") if False else session.apply(
            "parallelize"
        )
        with pytest.raises(PedError):
            session.redo()


class TestFeatures:
    def test_minimal_features_conservative(self):
        session = PedSession(SRC, features=FeatureSet.minimal())
        session.select_loop(1)
        # Without reduction recognition the s accumulation blocks.
        assert not session.selected_info.parallelizable

    def test_parallel_summary(self, session):
        rows = session.parallel_summary()
        assert rows == [("demo", 1, 2)]
