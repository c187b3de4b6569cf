"""v5 binary frames: codec round trips, abuse paths, negotiation.

Covers the satellite checklist end to end: length-prefixed frame
encode/decode with delta-encoded repeats, truncated frames, oversized
frames, mid-frame disconnects, and JSON↔binary negotiation (including
the fallback against a server that does not speak v5) — over the
asyncio transport's TCP front end.
"""

import json
import socket
import struct
import threading

import pytest

from repro.service import PedClient, PedRequestError, PedServer
from repro.service import protocol
from repro.service.protocol import (
    FrameDecoder,
    FrameEncoder,
    ProtocolError,
)

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
# codec round trips
# ----------------------------------------------------------------------


def test_raw_frame_round_trip():
    enc, dec = FrameEncoder(), FrameDecoder()
    env = {"ok": True, "result": {"x": 1}}  # no id/session → unkeyed
    dec.feed(enc.encode(env, key=None))
    assert dec.next() == env
    assert dec.next() is None
    assert dec.pending() == 0


def test_keyed_stream_delta_encodes_repeats():
    """Successive envelopes of one stream shrink to their edit."""

    enc, dec = FrameEncoder(), FrameDecoder()
    rows = [f"row {i}: a(i) = a(i-1)" for i in range(200)]
    first = {"id": 1, "op": "pane", "session": "s", "rows": rows}
    frame1 = enc.encode(first, key="pane:s")
    rows2 = list(rows)
    rows2[17] = "row 17: a(i) = a(i+1)"
    second = {"id": 2, "op": "pane", "session": "s", "rows": rows2}
    frame2 = enc.encode(second, key="pane:s")
    # Baseline carries the whole body; the delta carries the edit.
    assert len(frame2) < len(frame1) / 10
    dec.feed(frame1)
    dec.feed(frame2)
    assert dec.next() == first
    assert dec.next() == second


def test_delta_falls_back_to_baseline_when_unprofitable():
    enc, dec = FrameEncoder(), FrameDecoder()
    a = {"id": 1, "op": "q", "session": "s", "v": "x" * 50}
    b = {"id": 2, "op": "q", "session": "s", "v": "y" * 50}
    dec.feed(enc.encode(a, key="k"))
    dec.feed(enc.encode(b, key="k"))  # nothing in common → baseline
    assert dec.next() == a
    assert dec.next() == b


def test_byte_split_feeding():
    """Frames reassemble regardless of how the stream fragments."""

    enc = FrameEncoder()
    envs = [
        {"id": i, "op": "loops", "session": "s", "n": i} for i in range(8)
    ]
    blob = b"".join(enc.encode(e, key="k") for e in envs)
    dec = FrameDecoder()
    out = []
    for i in range(0, len(blob), 7):
        dec.feed(blob[i : i + 7])
        while True:
            env = dec.next()
            if env is None:
                break
            out.append(env)
    assert out == envs


def test_truncated_frame_never_completes():
    enc, dec = FrameEncoder(), FrameDecoder()
    frame = enc.encode({"id": 1, "op": "ping"}, key=None)
    dec.feed(frame[: len(frame) - 3])  # disconnect mid-frame
    assert dec.next() is None
    assert dec.pending() > 0  # bytes parked, no crash, no envelope


def test_oversized_frame_is_rejected_then_skipped():
    dec = FrameDecoder(max_frame_bytes=64)
    big = b"\x00" + json.dumps({"id": 9, "op": "x", "pad": "z" * 200}).encode()
    frame = struct.pack(">I", len(big)) + big
    ok = FrameEncoder().encode({"id": 10, "op": "ping"}, key=None)
    dec.feed(frame + ok)
    with pytest.raises(ProtocolError) as exc:
        dec.next()
    assert exc.value.type == protocol.PAYLOAD_TOO_LARGE
    # The decoder skipped the oversized body; the next frame decodes.
    assert dec.next() == {"id": 10, "op": "ping"}


def test_oversized_frame_skip_spans_feeds():
    """The skip survives the oversized body arriving in later chunks."""

    dec = FrameDecoder(max_frame_bytes=64)
    body = b"\x00" + b"z" * 1000
    frame = struct.pack(">I", len(body)) + body
    dec.feed(frame[:100])
    with pytest.raises(ProtocolError):
        dec.next()
    dec.feed(frame[100:])  # rest of the bad body: swallowed
    assert dec.next() is None
    dec.feed(FrameEncoder().encode({"id": 1, "op": "ping"}, key=None))
    assert dec.next() == {"id": 1, "op": "ping"}


def test_bad_frames_raise_structured_errors():
    dec = FrameDecoder()

    def frame(payload: bytes) -> bytes:
        return struct.pack(">I", len(payload)) + payload

    dec.feed(frame(b"\x07junk"))
    with pytest.raises(ProtocolError):  # unknown kind
        dec.next()
    dec.feed(frame(b"\x00not json"))
    with pytest.raises(ProtocolError):  # bad JSON
        dec.next()
    dec.feed(frame(b"\x02" + struct.pack(">H", 1) + b"k" + b"\x00" * 8))
    with pytest.raises(ProtocolError):  # delta against unknown key
        dec.next()


def test_delta_checksum_mismatch_detected():
    enc = FrameEncoder()
    first = {"id": 1, "op": "q", "session": "s", "rows": ["a"] * 40}
    second = {"id": 2, "op": "q", "session": "s", "rows": ["a"] * 39 + ["b"]}
    f1 = enc.encode(first, key="k")
    f2 = bytearray(enc.encode(second, key="k"))
    assert f2[4] == protocol.FRAME_DELTA
    f2[8] ^= 0xFF  # corrupt the crc32
    dec = FrameDecoder()
    dec.feed(f1)
    dec.next()
    dec.feed(bytes(f2))
    with pytest.raises(ProtocolError) as exc:
        dec.next()
    assert "checksum" in str(exc.value)


# ----------------------------------------------------------------------
# negotiation + end-to-end sessions
# ----------------------------------------------------------------------


@pytest.fixture(params=["asyncio"])  # the id names the transport
def server():
    srv = PedServer(max_workers=4)
    with served(srv) as port:
        yield srv, port
    srv.close()


def test_binary_session_end_to_end(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_frames() is True
        assert c.negotiate_frames() is True  # idempotent
        opened = c.request("open", session="s", source=SIMPLE)
        assert opened["units"] == ["p"]
        loops = c.request("loops", session="s", unit="p")["loops"]
        assert loops[0]["parallelizable"] is True
        c.request(
            "edit", session="s", start=4, end=4,
            text="         a(i) = i + 1",
        )
        loops = c.request("loops", session="s", unit="p")["loops"]
        assert loops[0]["parallelizable"] is True
        assert c.request("ping")["protocol"] == protocol.PROTOCOL_VERSION


def test_binary_streaming_events(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_frames() is True
        events = list(c.stream("open", session="s", source=SIMPLE))
        assert events[-1].kind == "result"
        kinds = {e.kind for e in events}
        assert "analysis.progress" in kinds
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_binary_saves_bytes_on_streamed_edit_session(server):
    """Acceptance criterion: a streamed edit session transfers fewer
    reply/event bytes over binary frames than over JSON lines."""

    _, port = server

    def run_session(binary: bool) -> int:
        with PedClient.connect(port=port) as c:
            if binary:
                assert c.negotiate_frames() is True
            sid = f"bin{binary}"
            c.request("open", session=sid, source=SIMPLE)
            for i in range(6):
                c.request(
                    "edit", session=sid, start=4, end=4,
                    text=f"         a(i) = i + {i}",
                )
                c.request("loops", session=sid, unit="p")
                c.request("deps", session=sid, unit="p")
            return c.bytes_received

    json_bytes = run_session(binary=False)
    bin_bytes = run_session(binary=True)
    assert bin_bytes < json_bytes, (bin_bytes, json_bytes)


def test_json_only_client_still_connects(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.request("ping")["pong"] is True
        c.request("open", session="plain", source=SIMPLE)
        assert c.request("loops", session="plain", unit="p")["loops"]


def test_json_and_binary_clients_coexist(server):
    _, port = server
    with PedClient.connect(port=port) as b, PedClient.connect(port=port) as j:
        assert b.negotiate_frames() is True
        b.request("open", session="b", source=SIMPLE)
        j.request("open", session="j", source=SIMPLE)
        assert b.request("loops", session="b", unit="p")["loops"]
        assert j.request("loops", session="j", unit="p")["loops"]


def test_bad_negotiation_mode_keeps_json(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        with pytest.raises(PedRequestError):
            c.request("frames", mode="gzip")
        # The connection stays on JSON lines and keeps working.
        assert c.request("ping")["pong"] is True


def test_mid_frame_disconnect_leaves_server_healthy(server):
    """A client that negotiates, sends half a frame and vanishes must
    not take the server (or other connections) down."""

    _, port = server
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    fh = sock.makefile("rb")
    sock.sendall(b'{"id": 1, "op": "frames", "mode": "binary"}\n')
    reply = json.loads(fh.readline())
    assert reply["ok"] is True and reply["result"]["frames"] == "binary"
    frame = FrameEncoder().encode({"id": 2, "op": "ping"}, key=None)
    sock.sendall(frame[: len(frame) // 2])
    sock.close()
    with PedClient.connect(port=port) as c:
        assert c.request("ping")["pong"] is True


def test_negotiation_falls_back_against_pre_v5_server():
    """An older server routes ``frames`` to its handler table and says
    ``unknown-op``; the client stays on JSON lines, connected."""

    def legacy(sock_server):
        conn, _ = sock_server.accept()
        rf = conn.makefile("rb")
        wf = conn.makefile("wb")
        for line in rf:
            req = json.loads(line)
            if req.get("op") == "ping":
                reply = {"id": req["id"], "ok": True,
                         "result": {"pong": True, "protocol": 4}}
            else:
                reply = {
                    "id": req["id"],
                    "ok": False,
                    "error": {
                        "type": "unknown-op",
                        "message": f"unknown op {req.get('op')!r}",
                    },
                }
            wf.write((json.dumps(reply) + "\n").encode())
            wf.flush()

    lsock = socket.create_server(("127.0.0.1", 0))
    port = lsock.getsockname()[1]
    threading.Thread(target=legacy, args=(lsock,), daemon=True).start()
    with PedClient.connect(port=port) as c:
        assert c.negotiate_frames() is False
        assert c.request("ping")["pong"] is True  # still JSON lines
    lsock.close()


def test_reply_keys_delta_pane_refreshes():
    """Replies of one (op, session) delta against each other — the
    server-side reply_delta_key path, asserted at the codec level."""

    enc, dec = FrameEncoder(), FrameDecoder()
    req = {"id": 1, "op": "loops", "session": "s"}
    key = protocol.reply_delta_key(req)
    assert key is not None
    body = {"id": 1, "ok": True, "result": {"loops": ["x"] * 60}}
    f1 = enc.encode(body, key=key)
    body2 = {"id": 2, "ok": True,
             "result": {"loops": ["x"] * 59 + ["y"]}}
    f2 = enc.encode(body2, key=key)
    assert len(f2) < len(f1) / 4
    dec.feed(f1 + f2)
    assert dec.next() == body
    assert dec.next() == body2
