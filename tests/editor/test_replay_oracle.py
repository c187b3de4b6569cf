"""Deferred journal replay against per-record analysis (property test).

``replay_journal`` applies its records under ``PedSession.deferring``:
each record updates the text and the parse, and the analysis settles
with one walk when something reads it.  A live session, driven here with
random operations, analyzes after every mutation.  For every prefix of
its journal, a deferred replay must reach the state a reference reaches
by applying the same records and reading ``session.analysis`` after each
one: the same fingerprint, source, selection, reclassifications and
their anchors, markings, undo/redo depth and journal.  The live session
(three undo snapshots, so undo often replays a prefix) must match that
reference after every operation too.

The operations cover what moves the parse under a replay: stencil edits,
deleting, renaming and restoring a subroutine (the current-unit
fallback), renaming ``function f`` to ``g`` and back or deleting and
restoring it while ``main`` references ``f(20)`` (unit-set changes, which
reparse only the spans they touch), inserting and removing a loop above
a reclassified one (override re-anchoring), a rejected edit, assertions,
marks of pending edges, reclassifications (on a fresh selection or on
the current one, which an edit may have left out of range),
transformations (which settle the analysis themselves), selections, undo
and redo.  Call chains stay two deep, well inside the engine's five
Jacobi rounds for interprocedural constants.

Each prefix replays twice: on a fresh engine, and on one store-backed
engine shared by every prefix, so the settle walk also runs from warm
caches, across unit-set changes, and from disk warm starts.
"""

import copy
import tempfile

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.editor import PedSession
from repro.editor.journal import apply_record, replay_journal
from repro.editor.session import PedError
from repro.incremental import AnalysisEngine
from repro.incremental.fingerprint import fingerprint_digest
from repro.interproc import FeatureSet
from repro.service.persist import PersistentStore

FEATURES = FeatureSet()

#: ``main`` references the function as ``f(20)``; renaming it to ``g``
#: or deleting it changes the unit set.
FUNCTION = (
    "      function {name}(n)\n"
    "      {name} = 0.0\n"
    "      do m = 1, n\n"
    "         {name} = {name} + m\n"
    "      enddo\n"
    "      end\n"
)

SOURCE = (
    "      program main\n"
    "      real a(20), b(20)\n"
    "      call work(a, b, 20)\n"
    "      call helper(b, 20)\n"
    "      a(1) = f(20)\n"
    "      end\n"
    + FUNCTION.format(name="f")
    + "      subroutine work(a, b, n)\n"
    "      real a(20), b(20)\n"
    "      do i = 1, n\n"
    "         a(i) = a(i) + 1.0\n"
    "      enddo\n"
    "      do j = 2, n\n"
    "         s = b(j)\n"
    "         b(j) = s * 2.0\n"
    "      enddo\n"
    "      end\n"
    "      subroutine helper(b, n)\n"
    "      real b(20)\n"
    "      do k = 2, n\n"
    "         b(k) = b(k-1) + 1.0\n"
    "      enddo\n"
    "      end\n"
)

#: Right-hand sides a stencil edit puts on ``a(i) = ...`` in ``work``.
STENCILS = (
    "a(i) + 1.0",
    "a(i-1) + 1.0",
    "a(i+1) * 2.0",
    "b(i) + a(i)",
)
HELPER = "      subroutine helper(b, n)"
HELPER_TEXT = SOURCE[SOURCE.index(HELPER) :].rstrip("\n")
RENAMED = "      subroutine helpr(b, n)"
EXTRA_LOOP = (
    "      do kk = 1, n\n"
    "         a(kk) = 0.0\n"
    "      enddo\n"
)


def _line_of(session, text):
    """1-based number of the first line that is ``text`` (stripped)."""

    for number, line in enumerate(session.source.splitlines(), 1):
        if line.strip() == text.strip():
            return number
    return None


def _stencil(session, draw):
    for number, line in enumerate(session.source.splitlines(), 1):
        if line.strip().startswith("a(i) ="):
            rhs = STENCILS[draw % len(STENCILS)]
            session.edit(number, number, f"         a(i) = {rhs}")
            return


def _rename(session, _draw):
    """Rename ``helper``, or give a renamed one its name back."""

    for old, new in ((HELPER, RENAMED), (RENAMED, HELPER)):
        number = _line_of(session, old)
        if number is not None:
            session.edit(number, number, new)
            return


def _delete(session, _draw):
    """Delete ``helper`` (renamed or not), or append it again."""

    lines = session.source.splitlines()
    start = _line_of(session, HELPER) or _line_of(session, RENAMED)
    if start is not None:
        end = start + lines[start - 1 :].index("      end")
        session.edit(start, end, "")
    else:
        last = len(lines)
        session.edit(last, last, lines[-1] + "\n" + HELPER_TEXT)


def _function(session, draw):
    """Rename ``f`` to ``g`` or back (even draws) or delete it (odd
    draws); append ``f`` again when it is gone."""

    lines = session.source.splitlines()
    for name, other in (("f", "g"), ("g", "f")):
        start = _line_of(session, f"function {name}(n)")
        if start is None:
            continue
        end = start + lines[start - 1 :].index("      end")
        text = "" if draw % 2 else FUNCTION.format(name=other).rstrip("\n")
        session.edit(start, end, text)
        return
    last = len(lines)
    text = FUNCTION.format(name="f").rstrip("\n")
    session.edit(last, last, lines[-1] + "\n" + text)


def _toggle_loop(session, _draw):
    """Insert a loop above ``work``'s first loop, or remove it again."""

    start = _line_of(session, "do kk = 1, n")
    if start is not None:
        session.edit(start, start + 2, "")
        return
    first = _line_of(session, "do i = 1, n")
    if first is not None:
        line = session.source.splitlines()[first - 1]
        session.edit(first, first, EXTRA_LOOP + line)


def _bad_edit(session, draw):
    lines = session.source.splitlines()
    number = 1 + draw % len(lines)
    session.edit(number, number, "      x = = 1")


def _assert(session, draw):
    session.add_assertion(("n >= 1", "n > 2", "n <= 20")[draw % 3])


def _mark(session, draw):
    """Select a loop of ``work`` or ``helper``, then mark one of its
    pending edges."""

    session.select_unit(("work", "helper")[draw % 2])
    session.select_loop(draw % 3)
    pending = [d for d in session.dependences() if d.marking == "pending"]
    if pending:
        dep = pending[draw % len(pending)]
        session.mark_dependence(dep.id, ("accepted", "rejected")[draw % 2])


def _reclassify(session, draw):
    """Reclassify a variable on a loop of ``work`` it selects first, or
    (draws from 8) on the current selection, whatever an edit left of
    it."""

    if draw < 8:
        session.select_unit("work")
        session.select_loop(draw % 3)
    var = ("s", "a", "b", "kk")[draw % 4]
    session.reclassify(var, ("private", "private", "shared")[draw % 3])


def _apply(session, draw):
    """Transform the selected loop (the settle may fall to ``apply``);
    ``expand`` also edits the unit's declarations and loop parents."""

    name = ("parallelize", "reverse", "expand")[draw % 3]
    session.apply(name, **({"var": "s"} if name == "expand" else {}))


def _select_unit(session, draw):
    names = ("main", "work", "helper", "helpr", "f", "g")
    session.select_unit(names[draw % len(names)])


def _select_loop(session, draw):
    session.select_loop(draw % 3)


OPS = {
    "stencil": _stencil,
    "rename": _rename,
    "delete": _delete,
    "function": _function,
    "loop": _toggle_loop,
    "bad-edit": _bad_edit,
    "assert": _assert,
    "mark": _mark,
    "reclassify": _reclassify,
    "apply": _apply,
    "select-unit": _select_unit,
    "select-loop": _select_loop,
    "undo": lambda s, _d: s.undo(),
    "redo": lambda s, _d: s.redo(),
}

#: Histories per run: 20 in tier-1, a quarter of the profile's count
#: (150) under ``HYPOTHESIS_PROFILE=deep``.
EXAMPLES = max(20, settings.default.max_examples // 4)

operations = st.lists(
    st.tuples(st.sampled_from(sorted(OPS)), st.integers(0, 11)),
    min_size=1,
    max_size=10,
)


def _state(session):
    return copy.deepcopy(
        (
            fingerprint_digest(session.analysis),
            session.source,
            session.current_unit,
            session.loop_index,
            session.overrides,
            session._override_anchors,
            session.markings.snapshot(),
            session.undo_depth,
            session.redo_depth,
            session.journal.records,
        )
    )


def _reference_states(journal):
    """The state after every record, reading the analysis each time."""

    session = PedSession(journal.base_source, features=FEATURES)
    states = [_state(session)]
    for record in journal.records:
        apply_record(session, record)
        states.append(_state(session))
    return states


@settings(max_examples=EXAMPLES)
@given(operations)
# A settle re-applies a mark to a cached unit; undoing the mark later
# must leave that unit's next cache hit unmarked.
@example(
    [
        ("mark", 0),
        ("select-unit", 2),
        ("assert", 0),
        ("select-loop", 0),
        ("undo", 0),
        ("undo", 0),
    ]
)
# A loop inserted above a reclassified loop, then removed again.
@example([("reclassify", 4), ("loop", 0), ("select-loop", 2), ("loop", 0)])
# The current unit renamed away and back, then deleted and restored.
@example([("select-unit", 2), ("rename", 0), ("rename", 0), ("delete", 0)])
@example([("select-unit", 2), ("delete", 0), ("delete", 0), ("mark", 3)])
# ``apply`` settles a replay whose last parse renamed a unit away.
@example([("reclassify", 4), ("rename", 0), ("apply", 2), ("select-loop", 0)])
# A rejected edit between an undo and its redo.
@example([("assert", 0), ("undo", 0), ("bad-edit", 0), ("redo", 0)])
# A reclassification on a selection an edit left out of range.
@example(
    [
        ("loop", 0),
        ("select-unit", 1),
        ("select-loop", 2),
        ("loop", 0),
        ("reclassify", 10),
    ]
)
# The referenced function renamed, selected, deleted and restored.
@example(
    [
        ("function", 0),
        ("select-unit", 5),
        ("select-loop", 0),
        ("function", 1),
        ("undo", 0),
    ]
)
def test_deferred_replay_matches_per_record_analysis(ops):
    live = PedSession(SOURCE, features=FEATURES, max_snapshots=3)
    seen = {0: _state(live)}
    for name, draw in ops:
        try:
            OPS[name](live, draw)
        except PedError:
            pass
        seen[len(live.journal)] = _state(live)
    journal = live.journal
    reference = _reference_states(journal)
    # The live session (whose undo past three snapshots replays a
    # prefix) is where applying the records one by one lands.
    for position, state in seen.items():
        assert reference[position] == state, f"live, position {position}"

    with tempfile.TemporaryDirectory() as cache:
        shared = AnalysisEngine(
            features=FEATURES, store=PersistentStore.at(cache)
        )
        for upto, expected in enumerate(reference):
            fresh = replay_journal(journal, upto, features=FEATURES)
            assert _state(fresh) == expected, f"fresh engine, prefix {upto}"
            warm = replay_journal(journal, upto, engine=shared)
            assert _state(warm) == expected, f"shared engine, prefix {upto}"
