"""The transport's outbound path, against a fake host.

Request threads hand their events to the connection without waiting for
the event loop; the loop ships them with the request's reply, or once
per ``COALESCE_WINDOW`` while a request runs on.  These tests pin what
that must keep: one flush for a short streamed request, prompt delivery
of an event before a stall, backpressure at ``OUTBOUND_QUEUE`` with
every event delivered in order afterwards, the timeout cut, and a
disconnect that frees a blocked producer.  A raw socket reads the wire,
so every envelope and its ``seq`` is seen as sent.
"""

import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.fleet import transport as transport_mod
from repro.service import protocol
from repro.service.metrics import ConnectionGauge
from tests.serving import served

WINDOW = protocol.COALESCE_WINDOW
BOUND = transport_mod.OUTBOUND_QUEUE


class _Stats:
    def __init__(self) -> None:
        self.counters = {}
        self._lock = threading.Lock()

    def bump(self, name, n=1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def get(self, name) -> int:
        with self._lock:
            return self.counters.get(name, 0)


class FakeHost:
    """The host surface the transport serves, with ops that emit on a
    script: ``op_<name>(req, emit)`` returns the result."""

    def __init__(self) -> None:
        self.executor = ThreadPoolExecutor(max_workers=4)
        self.shutdown_event = threading.Event()
        self.max_request_bytes = 1 << 20
        self.connections = ConnectionGauge()
        self.stats = _Stats()
        self._listeners = {}
        self._lock = threading.Lock()
        #: Events a producer got rid of (its ``emit`` returned).
        self.emitted = 0
        self.emitted_at = None
        self.finished = threading.Event()
        #: Set when a ``flood`` returns.
        self.flooded = threading.Event()

    def add_listener(self, sink):
        with self._lock:
            token = len(self._listeners) + 1
            self._listeners[token] = sink
        return token

    def remove_listener(self, token) -> None:
        with self._lock:
            self._listeners.pop(token, None)

    def request_cancel(self, rid) -> None:
        pass

    def execute(self, req, emit=None):
        op = getattr(self, "op_" + req.get("op", ""))
        try:
            return protocol.reply_ok(req.get("id"), op(req, emit))
        finally:
            self.finished.set()

    def close(self) -> None:
        self.executor.shutdown(wait=True)

    # -- scripted ops --------------------------------------------------

    def op_ping(self, req, emit):
        return {"pong": True}

    def op_burst(self, req, emit):
        for i in range(req["n"]):
            emit(protocol.EV_PROGRESS, {"i": i})
        return {}

    def op_stall(self, req, emit):
        emit(protocol.EV_PROGRESS, {"phase": "before"})
        self.emitted_at = time.monotonic()
        time.sleep(0.5)
        return {}

    def op_flood(self, req, emit):
        pad = "x" * req["size"]
        for i in range(req["n"]):
            emit(protocol.EV_PROGRESS, {"i": i, "pad": pad})
            self.emitted = i + 1
        self.flooded.set()
        return {}

    def op_late(self, req, emit):
        for i in range(3):
            emit(protocol.EV_PROGRESS, {"i": i})
        time.sleep(0.6)
        for i in range(3, 6):
            emit(protocol.EV_PROGRESS, {"i": i})
        return {}

    def op_notify(self, req, emit):
        emit(protocol.EV_PROGRESS, {"i": 0})
        with self._lock:
            sinks = list(self._listeners.values())
        for _ in range(req.get("times", 1)):
            for sink in sinks:
                sink(protocol.EV_INVALIDATION, {"units": ["p"]})
        emit(protocol.EV_PROGRESS, {"i": 1})
        return {}

    def op_fan(self, req, emit):
        """``threads`` threads emit ``n`` events each into this one
        request, as the router's fan-out threads do."""

        def one(t):
            for i in range(req["n"]):
                emit(protocol.EV_PROGRESS, {"t": t, "i": i})

        workers = [
            threading.Thread(target=one, args=(t,))
            for t in range(req["threads"])
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        return {"alive": sum(w.is_alive() for w in workers)}


class Wire:
    """A raw JSON-lines client: every envelope read, with its arrival
    time.  ``reading=False`` leaves the socket unread until
    :meth:`start_reading`."""

    def __init__(self, port, reading=True, rcvbuf=None) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.connect(("127.0.0.1", port))
        self.envs = []
        self._cv = threading.Condition()
        self._thread = None
        if reading:
            self.start_reading()

    def start_reading(self) -> None:
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        buf = b""
        while True:
            try:
                chunk = self.sock.recv(1 << 16)
            except OSError:
                chunk = b""
            now = time.monotonic()
            if not chunk:
                with self._cv:
                    self._cv.notify_all()
                return
            buf += chunk
            *lines, buf = buf.split(b"\n")
            with self._cv:
                for line in lines:
                    self.envs.append((now, json.loads(line)))
                self._cv.notify_all()

    def send(self, req) -> None:
        self.sock.sendall(json.dumps(req).encode() + b"\n")

    def reply(self, rid, timeout=10.0):
        """``(arrival, envelope)`` of ``rid``'s reply."""

        deadline = time.monotonic() + timeout
        with self._cv:
            while True:
                for at, env in self.envs:
                    if env.get("id") == rid and "ok" in env:
                        return at, env
                left = deadline - time.monotonic()
                assert left > 0, f"no reply to {rid} within {timeout}s"
                self._cv.wait(left)

    def seen(self):
        """``(arrival, envelope)`` of everything read so far."""

        with self._cv:
            return list(self.envs)

    def of(self, rid):
        return [env for _, env in self.seen() if env.get("id") == rid]

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked recv
        except OSError:
            pass
        self.sock.close()
        if self._thread is not None:
            self._thread.join(timeout=10)


@pytest.fixture
def host():
    h = FakeHost()
    yield h
    h.close()


def _settled(read, quiet=0.3, limit=10.0):
    """``read()`` once it has not changed for ``quiet`` seconds."""

    deadline = time.monotonic() + limit
    last = read()
    since = time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.05)
        now = read()
        if now != last:
            last, since = now, time.monotonic()
        elif time.monotonic() - since >= quiet:
            break
    return last


def _flushes(host):
    return _settled(lambda: host.stats.get("net.flushes"), quiet=0.1)


def _assert_wire_order(envs):
    seqs = [env["seq"] for env in envs]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_streamed_request_within_the_window_costs_one_flush(host):
    with served(host) as port:
        wire = Wire(port)
        try:
            wire.send({"id": 1, "op": "ping"})
            wire.reply(1)
            before = _flushes(host)
            sent = time.monotonic()
            wire.send({"id": 2, "op": "burst", "n": 9, "stream": True})
            replied_at, reply = wire.reply(2)
            flushes = _flushes(host) - before
            envs = wire.of(2)
        finally:
            wire.close()
    assert [env["data"]["i"] for env in envs[:-1]] == list(range(9))
    assert envs[-1] is reply
    _assert_wire_order(envs)
    # At most one extra flush per window the request took: a request
    # that answers inside the window ships its events with its reply.
    took = replied_at - sent
    assert 1 <= flushes <= 1 + int(took / WINDOW), (flushes, took)


def test_event_before_a_stall_arrives_within_the_window(host):
    with served(host) as port:
        wire = Wire(port)
        try:
            wire.send({"id": 1, "op": "stall", "stream": True})
            replied_at, _ = wire.reply(1)
            event_at = next(at for at, env in wire.seen() if env.get("event"))
        finally:
            wire.close()
    assert event_at - host.emitted_at < WINDOW + 0.2
    assert replied_at - event_at > 0.3


def test_a_client_that_stops_reading_blocks_the_producer(host):
    n = 4 * BOUND
    with served(host) as port:
        wire = Wire(port, reading=False, rcvbuf=4096)
        try:
            wire.send(
                {"id": 1, "op": "flood", "n": n, "size": 16384,
                 "stream": True}
            )
            stalled = _settled(lambda: host.emitted)
            assert BOUND <= stalled < n
            assert not host.finished.is_set()
            wire.start_reading()
            wire.reply(1, timeout=30.0)
            envs = wire.of(1)
        finally:
            wire.close()
    assert [env["data"]["i"] for env in envs[:-1]] == list(range(n))
    assert envs[-1]["ok"] is True
    _assert_wire_order(envs)


def test_timeout_cuts_the_event_stream(host):
    with served(host) as port:
        wire = Wire(port)
        try:
            wire.send(
                {"id": 1, "op": "late", "stream": True, "timeout": 0.2}
            )
            _, reply = wire.reply(1)
            assert host.finished.wait(5.0)
            wire.send({"id": 2, "op": "ping"})
            wire.reply(2)
            envs = wire.of(1)
        finally:
            wire.close()
    assert reply["error"]["type"] == protocol.TIMEOUT
    assert [env["data"]["i"] for env in envs[:-1]] == [0, 1, 2]
    assert envs[-1] is reply
    _assert_wire_order(envs)


def test_disconnect_frees_a_blocked_producer(host):
    with served(host) as port:
        wire = Wire(port, reading=False, rcvbuf=4096)
        wire.send(
            {"id": 1, "op": "flood", "n": 4 * BOUND, "size": 16384,
             "stream": True}
        )
        stalled = _settled(lambda: host.emitted)
        assert stalled < 4 * BOUND and not host.finished.is_set()
        wire.close()
        assert host.finished.wait(5.0), "producer still blocked"


def _stuck(port):
    """A client whose connection holds ``OUTBOUND_QUEUE`` envelopes it
    does not read, with a producer blocked behind them."""

    wire = Wire(port, reading=False, rcvbuf=4096)
    wire.send(
        {"id": 1, "op": "flood", "n": 4 * BOUND, "size": 16384,
         "stream": True}
    )
    return wire


def test_a_stuck_client_does_not_hold_up_another_clients_broadcast(host):
    """Client A stops reading until its connection is full; client B's
    request broadcasts to A as well, and B still gets its reply.  When
    A reads again it gets every event, the broadcast included."""

    with served(host) as port:
        stuck = _stuck(port)
        try:
            stalled = _settled(lambda: host.emitted)
            assert stalled < 4 * BOUND
            wire = Wire(port)
            try:
                wire.send({"id": 2, "op": "notify", "stream": True})
                wire.reply(2, timeout=5.0)
            finally:
                wire.close()
            stuck.start_reading()
            stuck.reply(1, timeout=30.0)
            envs = [env for _, env in stuck.seen()]
        finally:
            stuck.close()
    mine = [env for env in envs if env.get("id") == 1]
    assert [env["data"]["i"] for env in mine[:-1]] == list(range(4 * BOUND))
    assert mine[-1]["ok"] is True
    assert [env.get("event") for env in envs if env.get("id") is None] == [
        protocol.EV_INVALIDATION
    ]
    _assert_wire_order(envs)


def test_a_client_a_second_bound_behind_is_cut_off(host):
    """Broadcasts keep coming to a client that has stopped reading: the
    one that would put it twice ``OUTBOUND_QUEUE`` behind cuts it off,
    which frees its blocked producer, while the broadcaster never
    waits."""

    with served(host) as port:
        stuck = _stuck(port)
        try:
            _settled(lambda: host.emitted)
            wire = Wire(port)
            try:
                wire.send(
                    {"id": 2, "op": "notify", "times": BOUND + 1,
                     "stream": True}
                )
                _, reply = wire.reply(2, timeout=5.0)
            finally:
                wire.close()
            assert reply["ok"] is True
            assert host.flooded.wait(5.0), "producer still blocked"
            stuck.start_reading()
            stuck._thread.join(timeout=5.0)
            assert not stuck._thread.is_alive(), "connection still open"
            assert not any("ok" in env for _, env in stuck.seen())
        finally:
            stuck.close()


def test_broadcast_keeps_its_place_among_the_events(host):
    """A broadcast emitted mid-request lands between the request's
    events, in emit order, and before its reply."""

    with served(host) as port:
        wire = Wire(port)
        try:
            wire.send({"id": 1, "op": "notify", "stream": True})
            wire.reply(1)
            envs = [env for _, env in wire.seen()]
        finally:
            wire.close()
    assert [(env.get("id"), env.get("event")) for env in envs] == [
        (1, protocol.EV_PROGRESS),
        (None, protocol.EV_INVALIDATION),
        (1, protocol.EV_PROGRESS),
        (1, None),
    ]
    _assert_wire_order(envs)


def test_threads_emitting_into_one_request_lose_nothing(host):
    """Eight threads emit into one request with a tiny switch interval:
    every event arrives once, each thread's in its own order."""

    threads, n = 8, 200
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with served(host) as port:
            wire = Wire(port)
            try:
                wire.send(
                    {"id": 1, "op": "fan", "threads": threads, "n": n,
                     "stream": True}
                )
                _, reply = wire.reply(1, timeout=30.0)
                envs = wire.of(1)
            finally:
                wire.close()
    finally:
        sys.setswitchinterval(old)
    assert reply["result"]["alive"] == 0
    for t in range(threads):
        mine = [env["data"]["i"] for env in envs[:-1] if env["data"]["t"] == t]
        assert mine == list(range(n))
    assert len(envs) == threads * n + 1
    _assert_wire_order(envs)
