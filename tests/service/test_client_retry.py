"""Client connect retry: bounded backoff, typed failure, late servers.

Satellite behavior: :meth:`PedClient.connect` retries transient
connection failures with exponential backoff + jitter, raises the typed
:class:`ServerUnavailableError` (never a raw ``OSError``) when the
budget is exhausted, and stays fail-fast by default so tests and
interactive tools never sit in a retry loop they didn't ask for.
"""

import socket
import threading
import time

import pytest

from repro.fleet import AsyncTransport
from repro.service import (
    PedClient,
    PedRequestError,
    PedServer,
    ServerUnavailableError,
)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_default_is_fail_fast():
    port = _free_port()  # nothing listening
    start = time.monotonic()
    with pytest.raises(ServerUnavailableError) as err:
        PedClient.connect(port=port)
    assert time.monotonic() - start < 2.0
    assert err.value.attempts == 1
    assert err.value.type == "connection"
    assert str(port) in err.value.message


def test_retry_budget_is_bounded_and_typed():
    port = _free_port()
    start = time.monotonic()
    with pytest.raises(ServerUnavailableError) as err:
        PedClient.connect(port=port, retries=2, backoff=0.01, jitter=0.0)
    elapsed = time.monotonic() - start
    assert err.value.attempts == 3
    # 0.01 + 0.02 of backoff plus connect overhead; bounded, not a hang.
    assert elapsed < 5.0
    assert isinstance(err.value, PedRequestError)


def test_retry_wins_when_server_arrives_late():
    """A server that comes up between attempts gets the connection —
    the fleet-restart scenario the router leans on."""

    srv = PedServer(max_workers=2)
    transport = AsyncTransport(srv)
    port = _free_port()
    transport.port = port

    def come_up_late():
        time.sleep(0.3)
        transport.start_background()

    starter = threading.Thread(target=come_up_late)
    starter.start()
    try:
        client = PedClient.connect(
            port=port, retries=8, backoff=0.1, jitter=0.1
        )
        with client:
            assert client.request("ping", wait=30)["pong"] is True
    finally:
        starter.join()
        transport.stop_background()
        srv.close()


def test_send_failure_raises_typed_error():
    """A submit on a connection whose server vanished surfaces as
    ``connection``-typed errors, not raw socket exceptions."""

    srv = PedServer(max_workers=2)
    transport = AsyncTransport(srv)
    port = transport.start_background()
    client = PedClient.connect(port=port)
    assert client.request("ping", wait=30)["pong"] is True
    transport.stop_background()
    srv.close()
    time.sleep(0.1)
    with pytest.raises(PedRequestError) as err:
        # The first sends may land in kernel buffers; keep writing
        # until the broken pipe surfaces (typed, never a raw OSError).
        for _ in range(100):
            client.submit("ping")
            time.sleep(0.02)
    assert err.value.type == "connection"
    assert isinstance(err.value, ServerUnavailableError)
    client.close()


def test_close_closes_the_reader_file():
    """Closing a TCP client stops its reader and closes the reader's
    file, so the socket's descriptor goes at once, not whenever the
    collector reaches it."""

    srv = PedServer(max_workers=2)
    transport = AsyncTransport(srv)
    port = transport.start_background()
    try:
        client = PedClient.connect(port=port)
        assert client.request("ping", wait=30)["pong"] is True
        client.close()
        assert not client._reader.is_alive()
        assert client._rfile.closed
    finally:
        transport.stop_background()
        srv.close()


def test_request_after_server_stops_fails_fast():
    """Once the reader has seen EOF, nothing can ever answer: a new
    request raises at once instead of waiting out its timeout."""

    srv = PedServer(max_workers=2)
    transport = AsyncTransport(srv)
    port = transport.start_background()
    client = PedClient.connect(port=port)
    try:
        assert client.request("ping", wait=30)["pong"] is True
        transport.stop_background()
        client._reader.join(timeout=5.0)
        assert not client._reader.is_alive()
        start = time.monotonic()
        with pytest.raises(ServerUnavailableError):
            client.request("ping", wait=3.0)
        assert time.monotonic() - start < 1.0
    finally:
        client.close()
        srv.close()
