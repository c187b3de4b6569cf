"""Protocol error paths and ordering over the asyncio transport.

A :class:`PedServer` runs behind :class:`AsyncTransport` here; every
abuse a client can inflict —
oversized request lines, malformed JSON, unknown ops, disconnecting
mid-stream — must produce a structured error (or a clean teardown)
without killing the server or wedging other connections.
"""

import json
import resource
import socket
import threading
import time

import pytest

from repro.fleet import AsyncTransport
from repro.service import PedClient, PedRequestError, PedServer

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
    srv = PedServer(max_workers=4, max_request_bytes=65536)
    transport = AsyncTransport(srv)
    port = transport.start_background()
    yield srv, port
    transport.stop_background()
    srv.close()


@pytest.fixture
def client(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        yield c


def _raw(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    return sock, sock.makefile("r", encoding="utf-8")


def _roundtrip(sock, lines_fh, payload: bytes) -> dict:
    sock.sendall(payload)
    return json.loads(lines_fh.readline())


def test_ping_and_streamed_ordering(client):
    reply = client.request("ping")
    assert reply["pong"] is True

    events = list(client.stream("open", session="s", source=SIMPLE))
    assert events[-1].kind == "result"
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    loops = client.request("loops", session="s", unit="p")["loops"]
    assert loops[0]["parallelizable"] is True


def test_oversized_request_gets_structured_error(server):
    """A line over the limit (but under the id-recovery slack) answers
    ``payload-too-large`` carrying the request's own id, and the
    connection keeps serving."""

    _, port = server
    sock, fh = _raw(port)
    big = json.dumps(
        {"id": 7, "op": "open", "session": "x", "source": "z" * 70000}
    ).encode()
    reply = _roundtrip(sock, fh, big + b"\n")
    assert reply["ok"] is False
    assert reply["error"]["type"] == "payload-too-large"
    assert reply["id"] == 7

    reply = _roundtrip(sock, fh, b'{"id": 8, "op": "ping"}\n')
    assert reply["ok"] is True and reply["result"]["pong"] is True
    sock.close()


def test_hugely_oversized_line_is_discarded_not_buffered(server):
    """A line so large the server refuses to even assemble it (over
    limit + slack) is discarded in chunks — one error reply with a null
    id, bounded memory, connection still usable."""

    _, port = server
    sock, fh = _raw(port)
    sock.sendall(b"x" * (65536 + 64 * 1024 + 4096))
    reply = _roundtrip(sock, fh, b"\n")
    assert reply["ok"] is False
    assert reply["error"]["type"] == "payload-too-large"
    assert reply["id"] is None

    reply = _roundtrip(sock, fh, b'{"id": 1, "op": "ping"}\n')
    assert reply["ok"] is True
    sock.close()


def test_malformed_json_gets_structured_error(server):
    _, port = server
    sock, fh = _raw(port)
    reply = _roundtrip(sock, fh, b"this is not json\n")
    assert reply["ok"] is False
    assert reply["error"]["type"] == "bad-request"

    reply = _roundtrip(sock, fh, b'[1, 2, 3]\n')
    assert reply["ok"] is False
    assert reply["error"]["type"] == "bad-request"

    reply = _roundtrip(sock, fh, b'{"id": 2, "op": "ping"}\n')
    assert reply["ok"] is True
    sock.close()


def test_unknown_op_is_structured(client):
    with pytest.raises(PedRequestError) as err:
        client.request("definitely.not.an.op")
    assert err.value.type == "unknown-op"
    assert client.request("ping")["pong"] is True


def test_mid_stream_disconnect_does_not_kill_server(server):
    """A client that vanishes mid-stream tears down its connection
    only: in-flight work is cancelled server-side, other clients keep
    getting answers, and the connection gauge returns to them alone."""

    from repro.workloads.generator import generate_program

    srv, port = server
    victim = PedClient.connect(port=port)
    started = threading.Event()

    with PedClient.connect(port=port) as fresh:
        # A streamed analysis, then yank the socket once events flow —
        # the request is genuinely mid-stream when the connection dies.
        victim.submit(
            "open",
            session="victim",
            source=generate_program(n_routines=10),
            stream=True,
            on_event=lambda _ev: started.set(),
        )
        assert started.wait(timeout=30)
        victim.close()  # no goodbye in the protocol: socket just drops

        assert fresh.request("ping", wait=30)["pong"] is True
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            metrics = fresh.request("metrics", wait=30)["metrics"]
            if metrics["server.connections.open"] == 1:
                break
            time.sleep(0.05)
        assert metrics["server.connections.open"] == 1
        assert metrics["server.connections.peak"] >= 2
        assert metrics["server.uptime_s"] > 0


def test_concurrent_clients(server):
    _, port = server
    results = []
    errors = []

    def one(i):
        try:
            with PedClient.connect(port=port) as c:
                results.append(c.request("ping", wait=30)["pong"])
        except Exception as exc:  # noqa: BLE001 — collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=one, args=(i,)) for i in range(16)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    assert results == [True] * 16


N_CONNECTIONS = 500


@pytest.fixture
def fd_room():
    """Descriptors for both ends of ``N_CONNECTIONS`` sockets in this
    process: raise the soft limit toward the hard one, restore it after."""

    need = 2 * N_CONNECTIONS + 256
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != resource.RLIM_INFINITY and soft < need:
        if hard != resource.RLIM_INFINITY and hard < need:
            pytest.skip(f"hard descriptor limit {hard} < {need}")
        resource.setrlimit(resource.RLIMIT_NOFILE, (need, hard))
    yield
    resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def test_500_concurrent_connections(server, fd_room):
    """One event loop holds 500 open connections and answers a ping on
    each, all sent before any reply is read; the gauge records them."""

    srv, port = server
    conns = []
    try:
        for _ in range(N_CONNECTIONS):
            conns.append(_raw(port))
        for i, (sock, _fh) in enumerate(conns):
            ping = json.dumps({"id": i, "op": "ping"}) + "\n"
            sock.sendall(ping.encode())
        for i, (_sock, fh) in enumerate(conns):
            reply = json.loads(fh.readline())
            assert reply["id"] == i and reply["result"]["pong"] is True
        assert srv.connections.peak >= N_CONNECTIONS
    finally:
        for sock, fh in conns:
            fh.close()
            sock.close()


def test_cancel_over_async_transport(client):
    pending = client.submit("sleep", seconds=30)
    client.request("cancel", target=pending.id)
    with pytest.raises(PedRequestError) as err:
        pending.result(10)
    assert err.value.type == "cancelled"
