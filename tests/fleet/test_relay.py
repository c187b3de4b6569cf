"""The router relays a forwarded request's events on that request's own
thread.

The relay reads the shard client's per-request stream and calls the
front end's ``emit`` itself, so a front-end client that stops reading
blocks only its own request, never the shard client's reader; the
corpus fan-out emits renumbered progress in ``done`` order; a forward
keeps its total deadline; and a shard broadcast still reaches every
router client.
"""

import itertools
import threading
import time
from contextlib import ExitStack, contextmanager

from repro.fleet import FleetRouter
from repro.service import PedClient, PedServer, protocol
from repro.workloads.generator import generate_program

from ..serving import names_owned_by, served
from .test_transport_outbound import FakeHost

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)


class DripHost(FakeHost):
    """A fake shard whose ``drip`` op emits one event every 50 ms."""

    def op_drip(self, req, emit):
        for i in range(req["n"]):
            emit(protocol.EV_PROGRESS, {"i": i})
            time.sleep(0.05)
        return {}


class RecordingServer(PedServer):
    """A session host that keeps every request it was sent."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.requests = []

    def execute(self, req, emit=None):
        self.requests.append(req)
        return super().execute(req, emit)


@contextmanager
def _routed(*hosts, **router_kwargs):
    """``hosts`` served as shards behind one router (not itself
    served): ``(router, shard addresses)``."""

    with ExitStack() as stack:
        addrs = []
        for host in hosts:
            stack.callback(host.close)
            port = stack.enter_context(served(host))
            addrs.append(f"127.0.0.1:{port}")
        router = FleetRouter(addrs, retries=1, backoff=0.01, **router_kwargs)
        stack.callback(router.close)
        yield router, addrs


def _in_thread(fn):
    """Run ``fn`` on a thread; returns the thread and a dict that gets
    ``fn``'s reply envelope."""

    out = {}
    thread = threading.Thread(target=lambda: out.update(fn()))
    thread.start()
    return thread, out


def test_a_stalled_relay_does_not_hold_up_the_shard():
    """While the front end's ``emit`` of one forwarded streamed request
    is blocked, a second request to the same shard gets its reply."""

    release = threading.Event()
    blocked = threading.Event()
    relayed = []

    def stalled_emit(kind, data):
        blocked.set()
        release.wait(30.0)
        relayed.append(data["i"])

    with _routed(FakeHost()) as (router, _):
        streamed_thread, streamed = _in_thread(
            lambda: router.execute(
                {"id": 1, "op": "burst", "n": 3, "stream": True},
                stalled_emit,
            )
        )
        other_thread = None
        try:
            assert blocked.wait(10.0)
            other_thread, other = _in_thread(
                lambda: router.execute({"id": 2, "op": "burst", "n": 0})
            )
            other_thread.join(5.0)
            assert other.get("ok") is True, "no reply within 5 s"
        finally:
            release.set()
            streamed_thread.join(10.0)
            if other_thread is not None:
                other_thread.join(10.0)
    assert streamed["ok"] is True
    assert relayed == [0, 1, 2]


def test_fanned_out_progress_counts_up_in_emit_order():
    """The front end's first ``emit`` stalls 0.3 s while two shards
    analyze an 8-program corpus: ``done`` still arrives as 1..8, since
    the other shard's progress waits behind it.  The streamed sub-batch
    submits carry no ``wait``."""

    shards = [RecordingServer(max_workers=2), RecordingServer(max_workers=2)]
    calls = itertools.count()
    arrived = []

    def emit(kind, data):
        if next(calls) == 0:
            time.sleep(0.3)
        arrived.append(data.get("done"))

    with _routed(*shards) as (router, addrs):
        names = names_owned_by(router.ring, addrs[0], 4)
        names += names_owned_by(router.ring, addrs[1], 4)
        programs = [
            {
                "name": name,
                "source": generate_program(
                    n_routines=2 + i % 3, n_fields=2, grid=8, steps=2
                ),
            }
            for i, name in enumerate(names)
        ]
        reply = router.execute(
            {
                "id": 1,
                "op": "corpus.submit",
                "stream": True,
                "programs": programs,
            },
            emit,
        )
    assert reply["ok"] is True, reply
    assert reply["result"]["complete"] is True
    assert reply["result"]["total"] == 8
    assert arrived == list(range(1, 9))
    submits = [
        req
        for shard in shards
        for req in shard.requests
        if req.get("op") == "corpus.submit"
    ]
    assert len(submits) == 2
    assert all(req.get("stream") and "wait" not in req for req in submits)


def test_a_streamed_forward_keeps_its_total_deadline():
    """A shard that keeps emitting does not stretch a forward past
    ``forward_timeout``: the stream's deadline covers the whole
    request, not the gap between two events, and it answers as an
    unstreamed forward's does."""

    relayed = []
    with _routed(DripHost(), forward_timeout=0.3) as (router, addrs):
        started = time.monotonic()
        reply = router.execute(
            {"id": 1, "op": "drip", "n": 40, "stream": True},
            lambda kind, data: relayed.append(data["i"]),
        )
        took = time.monotonic() - started
        _assert_given_up(router._client(addrs[0]))
    assert reply["ok"] is False
    assert reply["error"]["type"] == protocol.TIMEOUT
    assert took < 1.5, took
    assert relayed == list(range(len(relayed))) and relayed


def test_an_unstreamed_forward_past_its_deadline_answers_timeout():
    relayed = []
    with _routed(DripHost(), forward_timeout=0.3) as (router, addrs):
        reply = router.execute(
            {"id": 1, "op": "drip", "n": 40},
            lambda kind, data: relayed.append(data["i"]),
        )
        _assert_given_up(router._client(addrs[0]))
    assert reply["ok"] is False
    assert reply["error"]["type"] == protocol.TIMEOUT
    assert relayed == []


class RefusingHost(FakeHost):
    """A fake shard that answers ``refuse`` with an error reply."""

    def execute(self, req, emit=None):
        if req.get("op") == "refuse":
            return protocol.reply_error(
                req.get("id"), protocol.BAD_REQUEST, "refused"
            )
        return super().execute(req, emit)


def test_a_refused_streamed_forward_leaves_nothing_tracked():
    """The shard's error reply passes through, and the shard client
    keeps no sequence id for the request it answered."""

    with _routed(RefusingHost()) as (router, addrs):
        reply = router.execute(
            {"id": 1, "op": "refuse", "stream": True},
            lambda kind, data: None,
        )
        client = router._client(addrs[0])
        with client._pending_lock:
            assert not client._reply_seq
            assert not client._pending and not client._event_sinks
    assert reply["ok"] is False
    assert reply["error"]["type"] == protocol.BAD_REQUEST


def _assert_given_up(client):
    """The shard client tracks nothing of a forward that passed its
    deadline, while the shard keeps emitting for a while yet."""

    for _ in range(3):
        with client._pending_lock:
            assert not client._pending and not client._event_sinks
        time.sleep(0.1)


def test_router_clients_hear_a_shard_broadcast():
    """Two router clients hold two sessions of one program on one shard:
    an edit from the first reaches the second as an ``invalidation``
    naming the editing session, the changed unit and the holder, while
    the editor's own events still come before its reply."""

    shards = [PedServer(max_workers=4), PedServer(max_workers=4)]
    with _routed(*shards) as (router, addrs), served(router) as port:
        editing, holding = names_owned_by(router.ring, addrs[0], 2, "s")
        with PedClient.connect(port=port) as editor, PedClient.connect(
            port=port
        ) as holder:
            editor.request("open", session=editing, source=SIMPLE)
            holder.request("open", session=holding, source=SIMPLE)
            heard = []
            got_one = threading.Event()

            def listen(ev):
                if ev.kind == protocol.EV_INVALIDATION:
                    heard.append(ev)
                    got_one.set()

            holder.add_event_listener(listen)
            events = list(
                editor.stream(
                    "edit",
                    session=editing,
                    start=4,
                    end=4,
                    text="         a(i) = i + 2",
                    wait=60,
                )
            )
            assert got_one.wait(10.0)
    invalidation = heard[0]
    assert invalidation.request_id is None
    assert invalidation.data["session"] == editing
    assert invalidation.data["op"] == "edit"
    assert invalidation.data["units"] == ["p"]
    assert invalidation.data["holders"] == [holding]
    *progress, result = events
    assert result.kind == "result"
    assert progress
    assert all(ev.kind == protocol.EV_PROGRESS for ev in progress)
    seqs = [ev.seq for ev in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
