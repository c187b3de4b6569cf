"""Streaming protocol: progress events, seq ordering, invalidation
broadcasts, metrics, and cross-mode fingerprint parity.

The headline acceptance tests of the event-driven service core:

* a streaming ``open`` of a 40-routine workload observes at least one
  ``analysis.progress`` event *before* the terminal result, with
  strictly increasing per-connection sequence ids;
* an edit in one session that dirties units another session holds
  produces an ``invalidation`` broadcast naming both;
* the analysis fingerprint is identical whether computed serially
  in-process or through a streamed server request;
* the server's ``metrics`` op and the CLI's merged metrics report the
  same key set.
"""

import threading

import pytest

from repro.incremental import AnalysisEngine
from repro.incremental.fingerprint import fingerprint_digest
from repro.service import PedClient, PedServer
from repro.workloads.generator import generate_program

from ..serving import served

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)


@pytest.fixture
def server():
    srv = PedServer(max_workers=4)
    with served(srv) as port:
        yield srv, port
    srv.close()


@pytest.fixture
def client(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        yield c


@pytest.fixture(scope="module")
def workload40():
    return generate_program(n_routines=40)


def test_streamed_open_emits_progress_before_result(client, workload40):
    """The acceptance criterion: >= 1 analysis.progress before the
    terminal result on a 40-routine workload, strictly increasing seq."""

    events = list(client.stream("open", session="w", source=workload40))
    assert events[-1].kind == "result"
    progress = [e for e in events if e.kind == "analysis.progress"]
    assert len(progress) >= 1
    # Every event precedes the terminal reply in seq order, and the
    # whole stream is strictly increasing.
    seqs = [e.seq for e in events]
    assert all(isinstance(s, int) for s in seqs)
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    assert max(s for s in seqs[:-1]) < events[-1].seq
    # The pipeline phases all surface, dependence once per unit.
    phases = [e.data.get("phase") for e in progress]
    assert "split" in phases
    assert "callgraph" in phases
    assert phases.count("dependence") == len(events[-1].data["units"])
    # The first signal comes before any unit is analyzed.
    assert phases.index("split") < phases.index("dependence")


def test_streamed_edit_emits_progress(client):
    client.request("open", session="s", source=SIMPLE)
    events = list(
        client.stream(
            "edit", session="s", start=4, end=4, text="         a(i) = i + 1"
        )
    )
    assert events[-1].kind == "result"
    assert any(e.kind == "analysis.progress" for e in events)


def test_callback_streaming_api(client):
    seen = []
    handle = client.submit(
        "open",
        session="cb",
        source=SIMPLE,
        stream=True,
        on_event=seen.append,
    )
    result = handle.result(30.0)
    assert result["units"] == ["p"]
    assert any(e.kind == "analysis.progress" for e in seen)


def test_unstreamed_request_gets_no_events(client):
    """Without "stream": true the reply is the only envelope — the
    pre-streaming protocol behaviour, unchanged."""

    seen = []
    token = client.add_event_listener(seen.append)
    try:
        client.request("open", session="plain", source=SIMPLE)
        assert client.request("loops", session="plain", unit="p")["loops"]
    finally:
        client.remove_event_listener(token)
    assert [e for e in seen if e.kind == "analysis.progress"] == []


def test_invalidation_broadcast_names_editor_and_holders(client):
    """An edit in session a dirties unit p, which session b also holds:
    every connection hears an invalidation broadcast naming both."""

    client.request("open", session="a", source=SIMPLE)
    client.request("open", session="b", source=SIMPLE)
    seen = []
    got_one = threading.Event()

    def listen(ev):
        if ev.kind == "invalidation":
            seen.append(ev)
            got_one.set()

    token = client.add_event_listener(listen)
    try:
        client.request(
            "edit", session="a", start=4, end=4,
            text="         a(i) = i + 2",
        )
        assert got_one.wait(timeout=10.0)
    finally:
        client.remove_event_listener(token)
    ev = seen[0]
    assert ev.request_id is None  # broadcast, not tied to a request
    assert ev.data["session"] == "a"
    assert ev.data["op"] == "edit"
    assert ev.data["units"] == ["p"]
    assert ev.data["holders"] == ["b"]


def test_invalidation_broadcast_names_a_renamed_unit(client):
    """Renaming routine q in session a changes q, which session b holds:
    the broadcast names the old and the new name.  The rename changes
    the unit set, and the span cache still holds q's old span, so the
    old name is attributable."""

    source = (
        "      program p\n"
        "      real a(10)\n"
        "      call q(a)\n"
        "      end\n"
        "      subroutine q(a)\n"
        "      real a(10)\n"
        "      a(1) = 1.0\n"
        "      end\n"
    )
    client.request("open", session="a", source=source)
    client.request("open", session="b", source=source)
    seen = []
    got_one = threading.Event()

    def listen(ev):
        if ev.kind == "invalidation":
            seen.append(ev)
            got_one.set()

    token = client.add_event_listener(listen)
    try:
        client.request(
            "edit", session="a", start=5, end=5, text="      subroutine r(a)"
        )
        assert got_one.wait(timeout=10.0)
    finally:
        client.remove_event_listener(token)
    assert seen[0].data["units"] == ["q", "r"]
    assert seen[0].data["holders"] == ["b"]


def test_invalidation_broadcast_leaves_out_units_that_only_moved(client):
    """Inserting a line in ``upd0`` moves ``upd1`` to ``upd7`` down
    without changing their text: the broadcast names ``upd0`` alone."""

    source = generate_program(n_routines=8)
    client.request("open", session="a", source=source)
    client.request("open", session="b", source=source)
    line = source.splitlines().index("      subroutine upd0(x, k)") + 2
    seen = []
    got_one = threading.Event()

    def listen(ev):
        if ev.kind == "invalidation":
            seen.append(ev)
            got_one.set()

    token = client.add_event_listener(listen)
    try:
        client.request(
            "edit", session="a", start=line, end=line,
            text="      integer k\n      real t",
        )
        assert got_one.wait(timeout=10.0)
    finally:
        client.remove_event_listener(token)
    assert seen[0].data["units"] == ["upd0"]
    assert seen[0].data["holders"] == ["b"]


def test_no_invalidation_without_other_holders(client):
    """A lone session's edit dirties nobody else: no broadcast."""

    client.request("open", session="only", source=SIMPLE)
    seen = []
    token = client.add_event_listener(seen.append)
    try:
        client.request(
            "edit", session="only", start=4, end=4,
            text="         a(i) = i * 3",
        )
        client.request("ping")  # round-trip to flush any pending events
    finally:
        client.remove_event_listener(token)
    assert [e for e in seen if e.kind == "invalidation"] == []


def test_fingerprint_parity_serial_vs_streamed(client, workload40):
    """Mode parity: a streamed server analysis produces byte-identical
    fingerprints to the classic in-process serial engine."""

    _, pa = AnalysisEngine().analyze(workload40)
    serial_digest = fingerprint_digest(pa)

    events = list(client.stream("open", session="fp", source=workload40))
    assert events[-1].kind == "result"
    streamed = client.request("fingerprint", session="fp")["fingerprint"]
    assert streamed == serial_digest

    # Repeat without streaming on a second session: identical again.
    client.request("open", session="fp2", source=workload40)
    plain = client.request("fingerprint", session="fp2")["fingerprint"]
    assert plain == serial_digest


def test_metrics_op_matches_cli_key_set(client):
    """Satellite 2: the server metrics op and the stats CLI report the
    same merged key names."""

    from repro.editor import CommandInterpreter, PedSession

    client.request("open", session="m", source=SIMPLE)
    server_metrics = client.request("metrics")["metrics"]

    session = PedSession(SIMPLE)
    ped = CommandInterpreter(session)
    rendered = ped.execute("stats")
    for key in (
        "pool.workers",
        "pool.queue_depth",
        "memo.shared_hits",
        "memo.shared_misses",
        "memo.shared_hit_rate",
        "memo.entries",
        "memo.delta_absorbed",
        "memo.delta_exported",
        "pool.utilization",
    ):
        assert key in server_metrics
        assert key in rendered
    assert "memo.delta_skipped" not in server_metrics

    # Gauges reflect the live pool.
    assert server_metrics["pool.workers"] >= 1
    assert server_metrics["analyses"] >= 0


def test_per_session_metrics(client):
    client.request("open", session="ms", source=SIMPLE)
    metrics = client.request("metrics", session="ms")["metrics"]
    assert metrics["analyses"] >= 1
