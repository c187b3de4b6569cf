"""Wire protocol: framing, envelopes, sequence ids, structured errors.

Half unit tests on :mod:`repro.service.protocol` itself, half wire-level
regression tests proving the transports answer *every* malformed input —
bad JSON, non-object payloads, unknown ops, oversized lines — through
the structured error envelope rather than dropping the line or the
connection.
"""

import json
import threading

import pytest

from repro.service import PedClient, PedRequestError, PedServer
from repro.service import protocol

from ..serving import served

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)


# ----------------------------------------------------------------------
# protocol unit tests
# ----------------------------------------------------------------------


def test_parse_request_roundtrip():
    req = protocol.parse_request('{"id": 1, "op": "ping"}')
    assert req == {"id": 1, "op": "ping"}


def test_parse_request_bad_json():
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_request("{not json")
    assert exc.value.type == protocol.BAD_REQUEST
    assert exc.value.request_id is None


def test_parse_request_non_object():
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_request('[1, 2, 3]')
    assert exc.value.type == protocol.BAD_REQUEST


def test_parse_request_oversized_recovers_id():
    line = json.dumps({"id": 42, "op": "open", "source": "x" * 256})
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_request(line, max_bytes=64)
    assert exc.value.type == protocol.PAYLOAD_TOO_LARGE
    assert exc.value.request_id == 42


def test_parse_request_oversized_unparsable_id():
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_request("{broken" + "x" * 128, max_bytes=64)
    assert exc.value.type == protocol.PAYLOAD_TOO_LARGE
    assert exc.value.request_id is None


def test_sequencer_is_monotonic_across_threads():
    seq = protocol.Sequencer()
    out = []
    lock = threading.Lock()

    def take():
        for _ in range(200):
            n = seq.next()
            with lock:
                out.append(n)

    threads = [threading.Thread(target=take) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(out) == list(range(1, 801))


def test_envelope_shapes():
    ok = protocol.reply_ok(7, {"x": 1})
    err = protocol.reply_error(7, protocol.BAD_REQUEST, "nope")
    ev = protocol.event_envelope(7, protocol.EV_PROGRESS, {"phase": "split"})
    assert ok["ok"] is True and "event" not in ok
    assert err["ok"] is False and "event" not in err
    assert ev["event"] == protocol.EV_PROGRESS and "ok" not in ev
    assert json.loads(protocol.encode(ev))["event"] == "analysis.progress"


# ----------------------------------------------------------------------
# wire-level regression tests (real TCP transport)
# ----------------------------------------------------------------------


@pytest.fixture
def small_limit_server():
    srv = PedServer(max_workers=2, max_request_bytes=512)
    with served(srv) as port:
        yield srv, port
    srv.close()


def _raw_exchange(port, lines):
    """Write raw lines, read one reply line per written line."""

    import socket

    with socket.create_connection(("127.0.0.1", port)) as sock:
        rfile = sock.makefile("r", encoding="utf-8")
        wfile = sock.makefile("w", encoding="utf-8")
        replies = []
        for line in lines:
            wfile.write(line + "\n")
            wfile.flush()
            replies.append(json.loads(rfile.readline()))
        return replies


def test_bad_json_line_gets_structured_error(small_limit_server):
    _, port = small_limit_server
    (reply,) = _raw_exchange(port, ["{this is not json"])
    assert reply["ok"] is False
    assert reply["error"]["type"] == "bad-request"
    assert reply["id"] is None
    assert isinstance(reply["seq"], int)


def test_non_object_request_gets_structured_error(small_limit_server):
    _, port = small_limit_server
    (reply,) = _raw_exchange(port, ['["not", "an", "object"]'])
    assert reply["ok"] is False
    assert reply["error"]["type"] == "bad-request"


def test_unknown_op_gets_structured_error(small_limit_server):
    _, port = small_limit_server
    (reply,) = _raw_exchange(
        port, [json.dumps({"id": 3, "op": "frobnicate"})]
    )
    assert reply["ok"] is False
    assert reply["id"] == 3
    assert reply["error"]["type"] == "unknown-op"


def test_oversized_request_gets_structured_error(small_limit_server):
    _, port = small_limit_server
    big = json.dumps({"id": 9, "op": "open", "session": "s",
                      "source": "x" * 4096})
    (reply,) = _raw_exchange(port, [big])
    assert reply["ok"] is False
    assert reply["id"] == 9
    assert reply["error"]["type"] == "payload-too-large"


def test_connection_survives_framing_errors(small_limit_server):
    """A framing error must not poison the stream: later good requests
    on the same connection still work, with increasing seq stamps."""

    _, port = small_limit_server
    replies = _raw_exchange(
        port,
        [
            "{broken",
            json.dumps({"id": 1, "op": "ping"}),
            "[]",
            json.dumps({"id": 2, "op": "ping"}),
        ],
    )
    assert [r["ok"] for r in replies] == [False, True, False, True]
    seqs = [r["seq"] for r in replies]
    assert seqs == sorted(seqs) and len(set(seqs)) == 4


def test_oversized_error_via_client(small_limit_server):
    """The PedClient surfaces payload-too-large as a PedRequestError."""

    _, port = small_limit_server
    with PedClient.connect(port=port) as client:
        with pytest.raises(PedRequestError) as exc:
            client.request("open", session="s", source="x" * 4096)
        assert exc.value.type == "payload-too-large"
        # The connection is still usable afterwards.
        assert client.request("ping")["pong"] is True
        assert (
            client.request("open", session="s", source=SIMPLE)["units"]
            == ["p"]
        )
