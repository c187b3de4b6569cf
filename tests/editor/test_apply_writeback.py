"""A transformation writes back only the routine it rewrote.

``PedSession.apply`` replaces the transformed unit's lines, from its
header to the ``END`` the parser closed it with, by the unit's printed
text, and appends a unit the transformation added; every other line
keeps its text, comments included.  The engine forgets only that unit's
parse, so the session must still match a from-scratch analysis of its
new source, and undo and redo must restore the texts and analyses on
either side.
"""

import pytest

from repro.core.api import parallelize_program
from repro.editor import PedSession
from repro.editor.commands import CommandInterpreter
from repro.fortran.printer import unit_to_source
from repro.fortran.symbols import parse_and_bind
from repro.incremental import AnalysisEngine
from repro.incremental.fingerprint import fingerprint_digest
from repro.workloads.suite import SUITE

#: ``one`` sits above ``two``; comments and blank lines surround both.
SOURCE = (
    "c     driver\n"
    "      program main\n"
    "      real a(10), b(10)\n"
    "      integer idx(10)\n"
    "c     the first call\n"
    "      call one(a, 10)\n"
    "      call two(b, idx, 10)\n"
    "      end\n"
    "\n"
    "c     one: a stencil\n"
    "      subroutine one(a, n)\n"
    "      real a(n)\n"
    "      do i = 1, n\n"
    "         a(i) = a(i) + 1.0\n"
    "      enddo\n"
    "      end\n"
    "      subroutine two(b, idx, n)\n"
    "      real b(n)\n"
    "      integer idx(n)\n"
    "c     a scatter\n"
    "      do j = 1, n\n"
    "         b(idx(j)) = b(idx(j)) + 1.0\n"
    "      enddo\n"
    "      end\n"
    "c     trailing comment\n"
)


def _scratch(session):
    """Fingerprint of a from-scratch analysis of the session's source
    with its assertions."""

    _, pa = AnalysisEngine(features=session.features).analyze(
        session.source, assertions=session.assertion_texts
    )
    return fingerprint_digest(pa)


def test_apply_rewrites_only_the_transformed_routine():
    session = PedSession(SOURCE)
    session.select_unit("one")
    session.select_loop(0)
    session.apply("parallelize")
    lines = SOURCE.splitlines(keepends=True)
    # ``one``'s header is line 11 and its END line 16.
    printed = unit_to_source(session.sf.unit("one"))
    assert "c$par doall" in printed
    assert session.source == "".join(lines[:10]) + printed + "".join(lines[16:])
    assert _scratch(session) == fingerprint_digest(session.analysis)


def test_an_added_unit_is_printed_at_the_end():
    session = PedSession(SOURCE)
    session.select_unit("one")
    session.select_loop(0)
    session.apply("extract", unit_name="inner")
    lines = SOURCE.splitlines(keepends=True)
    one = unit_to_source(session.sf.unit("one"))
    inner = unit_to_source(session.sf.unit("inner"))
    assert "call inner(" in one
    assert session.source == (
        "".join(lines[:10]) + one + "".join(lines[16:]) + "\n" + inner
    )
    assert _scratch(session) == fingerprint_digest(session.analysis)
    session.undo()
    assert session.source == SOURCE
    assert "inner" not in {u.name for u in session.sf.units}


def test_markings_below_a_transformed_routine_keep_their_edges():
    """Rejecting the scatter's pending dependences makes ``two``'s loop
    parallel; a directive line that ``parallelize`` adds to ``one``
    above it moves ``two`` down a line, and the rejections move too."""

    session = PedSession(SOURCE)
    session.select_unit("two")
    session.select_loop(0)
    pending = [d for d in session.dependences() if d.marking == "pending"]
    assert len(pending) == 5
    for dep in pending:
        session.mark_dependence(dep.id, "rejected")
    assert ("two", 1, 1) in session.parallel_summary()
    session.select_unit("one")
    session.select_loop(0)
    session.apply("parallelize")
    assert ("two", 1, 1) in session.parallel_summary()
    assert len(session.source.splitlines()) == len(SOURCE.splitlines()) + 1
    session.undo()
    assert session.source == SOURCE
    assert ("two", 1, 1) in session.parallel_summary()


#: ``end subroutine`` closes ``one`` and ``two``, so the splitter, which
#: cuts only at a bare ``END``, puts both in the span after ``main``.
NAMED_ENDS = (
    "      program main\n"
    "      real a(10), b(10)\n"
    "      call one(a, 10)\n"
    "      call two(b, 10)\n"
    "      end\n"
    "      subroutine one(a, n)\n"
    "      real a(n)\n"
    "      do i = 1, n\n"
    "         a(i) = a(i) + 1.0\n"
    "      enddo\n"
    "      end subroutine one\n"
    "c     between\n"
    "      subroutine two(b, n)\n"
    "      real b(n)\n"
    "      do j = 1, n\n"
    "         b(j) = b(j) * 2.0\n"
    "      enddo\n"
    "      end subroutine two\n"
)


def test_a_unit_ends_where_the_parser_ended_it():
    """Applying to ``one`` replaces lines 6-11 alone: ``two``, which
    shares ``one``'s span, keeps its text."""

    session = PedSession(NAMED_ENDS)
    assert len(session.engine.spans(NAMED_ENDS)) == 2
    session.select_unit("one")
    session.select_loop(0)
    session.apply("parallelize")
    lines = NAMED_ENDS.splitlines(keepends=True)
    printed = unit_to_source(session.sf.unit("one"))
    assert "c$par doall" in printed
    assert session.source == "".join(lines[:5]) + printed + "".join(lines[11:])
    assert _scratch(session) == fingerprint_digest(session.analysis)
    session.undo()
    assert session.source == NAMED_ENDS


def test_auto_mode_writes_back_every_unit_of_a_span():
    """``parallelize_program`` gives ``one`` and ``two`` a DOALL each and
    splices both, bottom-up, leaving ``main`` and the comment between
    them alone."""

    result = parallelize_program(NAMED_ENDS, require_profitable=False)
    assert sorted(name for name, _ in result.parallelized) == ["one", "two"]
    lines = NAMED_ENDS.splitlines(keepends=True)
    sf = parse_and_bind(result.source)
    assert result.source == (
        "".join(lines[:5])
        + unit_to_source(sf.unit("one"))
        + lines[11]
        + unit_to_source(sf.unit("two"))
    )
    assert result.source.count("c$par doall") == 2


@pytest.mark.parametrize("name", sorted(SUITE))
def test_story_transformations_match_a_from_scratch_analysis(name):
    """After every ``apply`` of a Table-2 story the session matches a
    from-scratch analysis of its source; undo restores the text and
    analysis from before, and redo matches again."""

    program = SUITE[name]
    session = PedSession(program.source)
    ped = CommandInterpreter(session)
    for command in program.script:
        before = (session.source, fingerprint_digest(session.analysis))
        reply = ped.execute(command)
        assert not reply.startswith("error:"), (command, reply)
        if not command.startswith("apply "):
            continue
        after = (session.source, fingerprint_digest(session.analysis))
        assert after[1] == _scratch(session), command
        session.undo()
        assert (session.source, fingerprint_digest(session.analysis)) == before
        session.redo()
        assert (session.source, fingerprint_digest(session.analysis)) == after
        assert after[1] == _scratch(session), command
