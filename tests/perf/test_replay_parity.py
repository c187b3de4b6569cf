"""Acceptance criterion for the event-sourced core: a scripted 8-edit
session's journal replays byte-identical at EVERY prefix in both
execution modes —

* **serial**: in-process :func:`replay_journal`;
* **fleet**: the ``session.replay`` op forwarded through a 2-shard
  consistent-hash router.

"Byte-identical" is the analysis fingerprint digest — one hex string
per prefix — plus the journal records themselves, which must come out
the same no matter which front end recorded the mutations.
"""

import pytest

from repro.editor import PedSession
from repro.editor.journal import SessionJournal, replay_journal
from repro.editor.scripts import replay, replay_transcript
from repro.fleet import AsyncTransport, FleetRouter
from repro.incremental.fingerprint import fingerprint_digest
from repro.service import PedServer

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

#: The scripted 8-edit session: (start, end, replacement) triples that
#: rewrite statements in ``work``, alternating between both loops so
#: successive edits invalidate different analysis slices.
EDITS = [
    (8, 8, "         a(i) = a(i) + 2.0"),
    (11, 11, "         s = b(j) + 1.0"),
    (8, 8, "         a(i) = a(i) * 2.0"),
    (12, 12, "         b(j) = s * 3.0"),
    (8, 8, "         a(i) = a(i-1) + 1.0"),
    (11, 11, "         s = b(j) - 1.0"),
    (8, 8, "         a(i) = a(i) + 9.0"),
    (12, 12, "         b(j) = s * 4.0"),
]


def _server_mutations():
    """The wire requests equivalent to the scripted session."""

    yield {"op": "edit", "start": 8, "end": 8, "text": EDITS[0][2]}
    for start, end, text in EDITS[1:]:
        yield {"op": "edit", "start": start, "end": end, "text": text}


@pytest.fixture(scope="module")
def scripted():
    """The reference run: a live in-process session plus its journal."""

    session = PedSession(SOURCE)
    for start, end, text in EDITS:
        session.edit(start, end, text)
    journal = SessionJournal.from_wire(session.journal.to_wire())
    return journal


def _serial_prefix_digests(journal):
    out = []
    for upto in range(len(journal) + 1):
        replayed = replay_journal(journal, upto)
        out.append(fingerprint_digest(replayed.analysis))
    return out


def _drive_server(execute):
    """Open + 8 edits through a request executor; returns record total."""

    reply = execute({"op": "open", "session": "scripted", "source": SOURCE})
    assert reply["ok"], reply
    for req in _server_mutations():
        reply = execute(dict(req, session="scripted"))
        assert reply["ok"], reply
    log = execute({"op": "session.log", "session": "scripted"})
    assert log["ok"], log
    return log["result"]


def _server_prefix_digests(execute, total):
    out = []
    for upto in range(total + 1):
        reply = execute(
            {"op": "session.replay", "session": "scripted", "upto": upto}
        )
        assert reply["ok"], reply
        out.append(reply["result"]["fingerprint"])
    return out


def test_eight_edit_journal_replays_identically_in_both_modes(scripted):
    journal = scripted
    assert len(journal) == len(EDITS)
    serial = _serial_prefix_digests(journal)
    assert len(set(serial)) > 1, "edits must actually change the analysis"

    # Two shards behind the fleet router.
    shards = []
    addrs = []
    for _ in range(2):
        srv = PedServer(max_workers=4)
        transport = AsyncTransport(srv)
        port = transport.start_background()
        shards.append((srv, transport))
        addrs.append(f"127.0.0.1:{port}")
    router = FleetRouter(addrs, retries=1, backoff=0.01)
    try:
        log = _drive_server(router.execute)
        server_records = SessionJournal.from_wire(
            {"version": 1, "base": SOURCE, "records": log["records"]}
        ).records
        assert server_records == journal.records, (
            "server journal must match the scripted one"
        )
        fleet_digests = _server_prefix_digests(router.execute, log["total"])
    finally:
        router.close()
        for srv, transport in shards:
            transport.stop_background()
            srv.close()

    assert serial == fleet_digests


def test_suite_transcripts_carry_replayable_journals():
    """Every scripted suite story now records its journal, and the
    journal alone rebuilds the exact final state (full prefix)."""

    session, transcript = replay("onedim")
    assert transcript.ok, transcript.errors
    assert transcript.journal is not None
    rebuilt = replay_transcript(transcript)
    assert rebuilt.source == transcript.final_source
    assert fingerprint_digest(rebuilt.analysis) == fingerprint_digest(
        session.analysis
    )
    # And at every prefix, deterministically.
    n = len(transcript.journal["records"])
    first = [
        fingerprint_digest(replay_transcript(transcript, upto=k).analysis)
        for k in range(n + 1)
    ]
    second = [
        fingerprint_digest(replay_transcript(transcript, upto=k).analysis)
        for k in range(n + 1)
    ]
    assert first == second
    assert first[-1] == fingerprint_digest(session.analysis)
