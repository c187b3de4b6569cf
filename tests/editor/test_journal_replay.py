"""Event-sourcing invariants on a live session.

The core bar: the live session state IS a replay of its journal — at
*every* prefix, :func:`replay_journal` reproduces the same analysis
fingerprint, source text and selection the live session had when that
record was appended.  On top of that: interned snapshots share piece
strings, the snapshot cache evicts past its cap (bumping
``session.undo_evicted``) and falls back to journal replay
(``session.undo_replayed``) with identical results, and failed
mutations never journal.
"""

import pytest

from repro.editor import PedSession
from repro.editor.journal import replay_journal
from repro.incremental.fingerprint import fingerprint_digest
from repro.interproc import FeatureSet

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

FEATURES = FeatureSet(scalar_kill=False)


def _fingerprint(session):
    return fingerprint_digest(session.analysis)


def _drive(session):
    """A representative mutation sequence touching every record type."""

    session.select_unit("work")
    session.select_loop(1)
    session.reclassify("s", "private")
    session.edit(8, 8, "         a(i) = a(i) + 2.0")
    session.select_unit("work")
    session.add_assertion("n >= 1")
    session.select_loop(0)
    pending = sorted(
        (d for d in session.dependences() if d.marking == "pending"),
        key=lambda d: (d.var, d.kind, d.src_line, d.dst_line),
    )
    if pending:
        session.mark_dependence(pending[0].id, "rejected")
    session.undo()
    session.redo()


def test_replay_parity_at_every_prefix():
    live = PedSession(SOURCE, features=FEATURES)
    checkpoints = [(0, _fingerprint(live), live.source, live.undo_depth)]
    before = 0
    # Re-checkpoint after each journal growth step.
    for step in (
        lambda s: s.select_unit("work"),
        lambda s: s.select_loop(1),
        lambda s: s.reclassify("s", "private"),
        lambda s: s.edit(8, 8, "         a(i) = a(i) + 2.0"),
        lambda s: s.add_assertion("n >= 1"),
        lambda s: s.undo(),
        lambda s: s.redo(),
    ):
        step(live)
        after = len(live.journal)
        assert after > before, "every step must append at least one record"
        before = after
        checkpoints.append(
            (after, _fingerprint(live), live.source, live.undo_depth)
        )

    for position, digest, source, undo_depth in checkpoints:
        replayed = replay_journal(live.journal, position, features=FEATURES)
        assert _fingerprint(replayed) == digest, f"prefix {position} diverged"
        assert replayed.source == source
        assert replayed.undo_depth == undo_depth
        # The replayed session rebuilt the identical journal prefix.
        assert replayed.journal.records == live.journal.records[:position]


def test_replay_reproduces_selection_at_mutation_time():
    live = PedSession(SOURCE, features=FEATURES)
    live.select_unit("work")
    live.select_loop(1)
    live.reclassify("s", "private")
    replayed = replay_journal(live.journal, features=FEATURES)
    assert replayed.current_unit == "work"
    assert replayed.selected_loop is replayed.loops()[1].loop


def test_snapshots_intern_shared_unit_texts():
    session = PedSession(SOURCE, features=FEATURES)
    session.select_unit("work")
    session.add_assertion("n >= 1")
    session.edit(8, 8, "         a(i) = a(i) + 2.0")
    snaps = list(session._snapshots.values())
    assert len(snaps) >= 2
    # The untouched ``main`` unit's text is the same interned object in
    # every snapshot — bounded memory even at deep undo depths.
    shared = [
        piece
        for piece in snaps[0].pieces
        if "program main" in piece
    ]
    assert shared
    for snap in snaps[1:]:
        assert any(piece is shared[0] for piece in snap.pieces)
    # Snapshots still reassemble the exact source they captured.
    assert snaps[-1].source == session._snapshots[
        max(session._snapshots)
    ].source


def test_eviction_bumps_counter_and_undo_falls_back_to_replay():
    session = PedSession(SOURCE, features=FEATURES, max_snapshots=2)
    states = [(fingerprint_digest(session.analysis), session.source)]
    session.select_unit("work")
    for step, text in enumerate(
        (
            "         a(i) = a(i) + 2.0",
            "         a(i) = a(i) + 3.0",
            "         a(i) = a(i) + 4.0",
            "         a(i) = a(i) + 5.0",
        )
    ):
        session.edit(8, 8, text)
        states.append((fingerprint_digest(session.analysis), session.source))

    counters = session.engine.stats.counters
    assert counters.get("session.undo_evicted", 0) > 0
    assert len(session._snapshots) <= 2

    # Undo all the way past the evicted positions: each restore must
    # still land on the exact prior state, via replay when the snapshot
    # is gone.
    for expect in reversed(states[:-1]):
        session.undo()
        assert (fingerprint_digest(session.analysis), session.source) == expect
    assert counters.get("session.undo_replayed", 0) > 0

    # And forward again through redo.
    for expect in states[1:]:
        session.redo()
        assert (fingerprint_digest(session.analysis), session.source) == expect


def test_failed_mutation_does_not_journal():
    session = PedSession(SOURCE, features=FEATURES)
    session.select_unit("work")
    before = list(session.journal.records)
    depth = session.undo_depth
    with pytest.raises(Exception):
        session.edit(8, 8, "         this is not fortran (")
    assert session.journal.records == before
    assert session.undo_depth == depth
    # The session still works and journals the next good mutation.
    session.add_assertion("n >= 1")
    assert session.journal.records[-1].op == "assert"


def test_rejected_mutation_keeps_the_redo_stack():
    """A rejected edit journals nothing, so it must not drop what redo
    would bring back: the live session stays what its journal replays
    to."""

    session = PedSession(SOURCE, features=FEATURES)
    session.select_unit("work")
    session.add_assertion("n >= 1")
    session.undo()
    with pytest.raises(Exception):
        session.edit(8, 8, "         this is not fortran (")
    assert session.redo_depth == 1
    replayed = replay_journal(session.journal, features=FEATURES)
    assert replayed.redo_depth == 1
    session.redo()
    assert session.assertion_texts == {"work": ["n >= 1"]}


def test_max_snapshots_floor_is_one():
    session = PedSession(SOURCE, max_snapshots=0)
    assert session._max_snapshots == 1
