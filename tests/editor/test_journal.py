"""The mutation journal itself: record typing, wire round-trips, replay
dispatch errors.

The property tests pin the serialization contract: every mutation type's
record survives ``to_wire`` → JSON → ``from_wire`` identically, for
arbitrary argument values — the invariant the durable journal file and
the ``session.log``/``session.replay`` wire ops all lean on.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.editor.journal import (
    JOURNAL_VERSION,
    JournalError,
    MutationRecord,
    SessionJournal,
    apply_record,
    replay_journal,
)
from repro.editor.session import PedSession

# Values that must pass through a record untouched (JSON scalars plus
# nested lists/dicts of them; no NaN — JSON round-trips it as a float
# that != itself, and no mutation ever records one).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=10), inner, max_size=4),
    ),
    max_leaves=10,
)

_texts = st.text(max_size=200)

# One strategy per mutation type, covering the whole record vocabulary.
_records = st.one_of(
    st.builds(
        lambda s, e, t: ("edit", {"start": s, "end": e, "text": t}),
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=10_000),
        _texts,
    ),
    st.builds(
        lambda n, a: ("apply", {"transform": n, "args": a}),
        st.text(min_size=1, max_size=30),
        st.dictionaries(st.text(max_size=10), _json_values, max_size=4),
    ),
    st.builds(lambda t: ("assert", {"text": t}), _texts),
    st.builds(
        lambda d, m: ("mark", {"dep": d, "marking": m}),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["accepted", "rejected", "pending"]),
    ),
    st.builds(
        lambda v, c: ("reclassify", {"var": v, "classification": c}),
        st.text(min_size=1, max_size=20),
        st.sampled_from(["private", "shared"]),
    ),
    st.builds(lambda u: ("select", {"unit": u}), st.text(max_size=20)),
    st.builds(
        lambda i: ("select", {"loop": i}),
        st.integers(min_value=0, max_value=100),
    ),
    st.just(("undo", {})),
    st.just(("redo", {})),
)


@settings(max_examples=200, deadline=None)
@given(_records)
def test_every_record_type_round_trips(op_args):
    op, args = op_args
    record = MutationRecord(op, args)
    wired = json.loads(json.dumps(record.to_wire()))
    assert MutationRecord.from_wire(wired) == record


@settings(max_examples=50, deadline=None)
@given(st.lists(_records, max_size=20), _texts)
def test_journal_round_trips(record_list, base):
    journal = SessionJournal(base_source=base)
    for op, args in record_list:
        journal.append(op, **args)
    wired = json.loads(json.dumps(journal.to_wire()))
    back = SessionJournal.from_wire(wired)
    assert back.base_source == journal.base_source
    assert back.records == journal.records


def test_append_rejects_unknown_op():
    journal = SessionJournal(base_source="")
    with pytest.raises(JournalError):
        journal.append("format-disk")


def test_from_wire_rejects_unknown_op_and_versions():
    with pytest.raises(JournalError):
        MutationRecord.from_wire({"op": "format-disk", "args": {}})
    with pytest.raises(JournalError):
        SessionJournal.from_wire(
            {"version": JOURNAL_VERSION + 1, "base": "", "records": []}
        )
    with pytest.raises(JournalError):
        SessionJournal.from_wire({"version": JOURNAL_VERSION, "records": []})


def test_listener_sees_every_append():
    seen = []
    journal = SessionJournal(base_source="x")
    journal.listener = seen.append
    journal.append("select", unit="a")
    journal.append("undo")
    assert [r.op for r in seen] == ["select", "undo"]


def test_opaque_arguments_survive_but_refuse_replay():
    """AST-valued arguments (library code calling ``apply`` directly)
    keep the journal appendable, but the record says so and replay
    fails loudly instead of diverging silently."""

    class Node:
        def __repr__(self):
            return "<DoLoop i>"

    journal = SessionJournal(base_source="")
    record = journal.append("apply", transform="t", args={"loop": Node()})
    assert not record.replayable
    # Still JSON-serializable:
    json.dumps(record.to_wire())
    with pytest.raises(JournalError, match="non-serializable"):
        apply_record(object(), record)


SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)


def test_live_session_journal_round_trips_through_json():
    session = PedSession(SIMPLE)
    session.select_unit("p")
    session.select_loop(0)
    session.edit(4, 4, "         a(i) = i + 1")
    session.undo()
    session.redo()
    wired = json.loads(json.dumps(session.journal.to_wire()))
    back = SessionJournal.from_wire(wired)
    assert back.records == session.journal.records
    assert back.base_source == SIMPLE


def test_replay_record_missing_argument():
    class Stub:
        def edit(self, *a):  # pragma: no cover - never reached
            raise AssertionError("should fail before dispatch completes")

    with pytest.raises(JournalError, match="missing argument"):
        apply_record(Stub(), MutationRecord("edit", {"start": 1}))


def test_replay_journal_rebuilds_state():
    journal = SessionJournal(base_source=SIMPLE)
    journal.append("select", unit="p")
    journal.append("edit", start=4, end=4, text="         a(i) = 2*i")
    session = replay_journal(journal)
    assert "2*i" in session.source
    # The replayed session journals its own replay — same records.
    assert session.journal.records == journal.records
