"""Incremental reanalysis equals a cold one after random edits.

The engine re-folds a caller's summaries only when a callee's summary
came out different, keeps each caller's constant fold while its text
and inherited constants stay put, and splices each split from the one
before, so an edit whose effect one of those shortcuts missed would
leave a stale answer behind.  These tests hunt for such edits: seeded
random edit sequences (formal reorders, integer-literal bumps, comment
insertions, inserted and deleted lines, and ``END`` lines removed or
inserted so that two units merge or one splits) over every suite
program, two generated programs and a two-unit call.  After every step
the incremental fingerprint must equal a fresh engine's, and a source
a fresh engine rejects must be rejected with the same error.  Seeds
are fixed, so the sweep is deterministic.

A session case adds markings and reclassifications: its verdicts and
fingerprint after undo and redo must equal a fresh session replaying
the same journal.  Skipping the verdict refresh on units a walk neither
recomputed nor restored is sound only because refreshing a freshly
analyzed unit reproduces its verdicts, which the last test checks.
"""

import random
import re

import pytest

from repro.editor import PedSession
from repro.editor.journal import replay_journal
from repro.fortran.errors import FortranError
from repro.incremental import AnalysisEngine, program_fingerprint
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

#: ``sub`` binds its scalar formals by position, so reordering them
#: moves the section ``main``'s call touches while every summary of
#: ``sub`` (written in formal names) stays equal.
FORMAL_SWAP = (
    "      program main\n"
    "      real a(100)\n"
    "      n = 20\n"
    "      m = 2\n"
    "      do j = 1, 10\n"
    "         call sub(a(1), n, m)\n"
    "         a(15 + j) = a(j) + 1.0\n"
    "      enddo\n"
    "      end\n"
    "      subroutine sub(x, k, l)\n"
    "      real x(100)\n"
    "      do i = k, l\n"
    "         x(i) = x(i) + 1.0\n"
    "      enddo\n"
    "      end\n"
)

PROGRAMS = {
    **{name: SUITE[name].source for name in SUITE},
    "generated(5)": generate_program(5),
    "generated(12, 3)": generate_program(12, 3),
    "formal-swap": FORMAL_SWAP,
}
SEEDS = (0, 1)
STEPS = 16

_HEADER = re.compile(r"^(\s+subroutine\s+\w+\s*\()([^)]*)(\).*)$", re.I)
_INT = re.compile(r"(?<![\w.])\d+(?![\w.])")
_STATEMENT_COLUMN = 6  # columns 1-6 hold labels and continuation marks


def _shuffle_formals(lines, rng):
    headers = [
        i
        for i, text in enumerate(lines)
        if (m := _HEADER.match(text)) and "," in m.group(2)
    ]
    if not headers:
        return None
    i = rng.choice(headers)
    m = _HEADER.match(lines[i])
    formals = [f.strip() for f in m.group(2).split(",")]
    order = list(formals)
    while order == formals:
        rng.shuffle(order)
    out = list(lines)
    out[i] = m.group(1) + ", ".join(order) + m.group(3)
    return out


def _bump_literal(lines, rng):
    spots = [
        (i, lit.span())
        for i, text in enumerate(lines)
        if text and text[0] not in "cC*!"
        for lit in _INT.finditer(text, _STATEMENT_COLUMN)
    ]
    if not spots:
        return None
    i, (a, b) = rng.choice(spots)
    out = list(lines)
    out[i] = out[i][:a] + str(int(out[i][a:b]) + 1) + out[i][b:]
    return out


def _insert_comment(lines, rng):
    out = list(lines)
    out.insert(rng.randrange(len(lines) + 1), "c edit-parity probe")
    return out


def _insert_line(lines, rng):
    """Duplicate a statement: every later line moves down."""

    at = rng.randrange(len(lines))
    return lines[: at + 1] + lines[at:]


def _delete_line(lines, rng):
    at = rng.randrange(len(lines))
    return lines[:at] + lines[at + 1 :]


_UNIT_HEADER = re.compile(r"^\s+(subroutine|program|\w*\s*function)\s", re.I)

def _is_end(text):
    return text.strip().lower() == "end"


def _split_unit(lines, rng):
    """Close a unit early: its old ``END`` now closes an empty new
    subroutine."""

    ends = [i for i, text in enumerate(lines) if _is_end(text)]
    if not ends:
        return None
    at = rng.choice(ends)
    probe = f"      subroutine probe{rng.randrange(10**6)}"
    return lines[:at] + ["      end", probe] + lines[at:]


def _merge_units(lines, rng):
    """Drop an ``END`` and the next unit's header: the two units merge
    (a fresh engine accepts that when the second unit's body can follow
    the first's, as an empty ``probe`` can)."""

    pairs = []
    for i, text in enumerate(lines):
        if not _is_end(text):
            continue
        for j in range(i + 1, len(lines)):
            if _UNIT_HEADER.match(lines[j]):
                pairs.append((i, j))
                break
    if not pairs:
        return None
    i, j = rng.choice(pairs)
    return lines[:i] + lines[i + 1 : j] + lines[j + 1 :]


EDITS = (
    _shuffle_formals,
    _bump_literal,
    _insert_comment,
    _insert_line,
    _delete_line,
    _split_unit,
    _merge_units,
)


def _cold_outcome(source):
    """A fresh engine's fingerprint, or the error it rejects ``source``
    with."""

    try:
        _, pa = AnalysisEngine().analyze(source)
    except FortranError as exc:
        return (type(exc).__name__, str(exc))
    return program_fingerprint(pa)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_incremental_matches_cold_across_random_edits(name, seed):
    rng = random.Random(f"{name}/{seed}")
    lines = PROGRAMS[name].splitlines()
    engine = AnalysisEngine()
    engine.analyze(PROGRAMS[name])
    for step in range(STEPS):
        edit = rng.choice(EDITS)
        candidate = edit(lines, rng)
        if candidate is None:
            continue
        source = "\n".join(candidate) + "\n"
        cold = _cold_outcome(source)
        try:
            _, pa = engine.analyze(source)
        except FortranError as exc:
            assert (type(exc).__name__, str(exc)) == cold, (
                step,
                edit.__name__,
            )
            continue
        assert program_fingerprint(pa) == cold, (step, edit.__name__)
        lines = candidate


def test_formal_reorder_reaches_the_caller():
    engine = AnalysisEngine()
    _, before = engine.analyze(FORMAL_SWAP)
    assert all(d.var != "a" for d in before.units["main"].graph.edges)
    swapped = FORMAL_SWAP.replace("sub(x, k, l)", "sub(x, l, k)")
    _, pa = engine.analyze(swapped)
    _, cold = AnalysisEngine().analyze(swapped)
    assert program_fingerprint(pa) == program_fingerprint(cold)
    # Now the call covers a(2:20), which the loop's a(15 + j) overlaps:
    # the j loop carries dependences on a and must not stay DOALL.
    assert any(d.var == "a" for d in pa.units["main"].graph.edges)
    assert not any(
        info.parallelizable for info in pa.units["main"].loop_info.values()
    )


#: ``edited`` precedes the other two, so an edit there that adds a line
#: moves the marked edge and the reclassified loop down.
SESSION_SOURCE = (
    "      program main\n"
    "      real a(100), b(100), c(100)\n"
    "      read (5, *) m\n"
    "      call edited(c, 100)\n"
    "      call marked(a, 100, m)\n"
    "      call reclass(b, 100)\n"
    "      end\n"
    "      subroutine edited(c, n)\n"
    "      real c(100)\n"
    "      do i = 1, n\n"
    "         c(i) = c(i) * 2.0\n"
    "      enddo\n"
    "      end\n"
    "      subroutine marked(a, n, m)\n"
    "      real a(100)\n"
    "      do i = 1, n\n"
    "         a(i) = a(i + m) + 1.0\n"
    "      enddo\n"
    "      end\n"
    "      subroutine reclass(b, n)\n"
    "      real b(100)\n"
    "      do j = 1, n\n"
    "         s = b(j)\n"
    "         b(j) = s * 2.0\n"
    "      enddo\n"
    "      end\n"
)


def _verdicts(session):
    return {
        name: [
            (info.loop.line, info.parallelizable, list(info.obstacles))
            for info in ua.loop_info.values()
        ]
        for name, ua in sorted(session.analysis.units.items())
    }


def _assert_matches_replay(session):
    replayed = replay_journal(session.journal, features=session.features)
    assert _verdicts(session) == _verdicts(replayed)
    assert program_fingerprint(session.analysis) == program_fingerprint(
        replayed.analysis
    )
    replayed.close()


def test_session_undo_redo_matches_journal_replay():
    from repro.interproc import FeatureSet

    session = PedSession(
        SESSION_SOURCE, features=FeatureSet(scalar_kill=False)
    )
    session.select_unit("marked")
    session.select_loop(0)
    carried = [
        d
        for d in session.dependences()
        if d.var == "a" and d.marking == "pending"
    ]
    assert len(carried) == 2
    for dep in carried:
        session.mark_dependence(dep.id, "rejected")
    session.select_unit("reclass")
    session.select_loop(0)
    session.reclassify("s", "private")
    assert all(
        info.parallelizable
        for name in ("marked", "reclass")
        for info in session.analysis.units[name].loop_info.values()
    )
    _assert_matches_replay(session)
    line = SESSION_SOURCE.splitlines().index("         c(i) = c(i) * 2.0")
    line += 1
    session.edit(
        line, line, "         c(i) = c(i) * 2.0\n         c(i) = c(i) + 1.0"
    )
    _assert_matches_replay(session)
    session.undo()
    _assert_matches_replay(session)
    session.redo()
    _assert_matches_replay(session)
    assert all(
        info.parallelizable
        for name in ("marked", "reclass")
        for info in session.analysis.units[name].loop_info.values()
    )
    # Back past the reclassification and both markings.
    while session.undo_depth:
        session.undo()
        _assert_matches_replay(session)
    assert not any(
        info.parallelizable
        for name in ("marked", "reclass")
        for info in session.analysis.units[name].loop_info.values()
    )
    session.close()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_verdict_refresh_reproduces_fresh_verdicts(name):
    """A freshly analyzed unit is a fixpoint of the session's verdict
    refresh, so a unit nobody marked needs no refresh."""

    _, pa = AnalysisEngine().analyze(PROGRAMS[name])
    refresh = PedSession._recompute_verdicts
    for ua in pa.units.values():
        before = {
            sid: (list(info.obstacles), info.parallelizable)
            for sid, info in ua.loop_info.items()
        }
        refresh(None, ua)
        after = {
            sid: (list(info.obstacles), info.parallelizable)
            for sid, info in ua.loop_info.items()
        }
        assert after == before, ua.unit.name
