"""v6 adaptive compression + coalescing: codec, abuse paths, ladder.

Hostile-input coverage for the two new frame kinds (compressed,
multi-record), the adaptive ship-raw guards, the ``frames`` ->
``compress`` negotiation ladder over TCP, and the invisibility
bar: a compressed connection sees the identical event sequence and
fingerprint a raw JSON connection sees.
"""

import json
import struct
import zlib

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


def _z(payload: bytes, zdict=None) -> bytes:
    co = zlib.compressobj(zdict=zdict) if zdict else zlib.compressobj()
    return co.compress(payload) + co.flush()


def _compressed_frame(inner: bytes, dict_key: bytes = b"") -> bytes:
    payload = (
        bytes([protocol.FRAME_COMPRESSED])
        + struct.pack(">H", len(dict_key))
        + dict_key
        + _z(inner)
    )
    return struct.pack(">I", len(payload)) + payload


def _multi_frame(subs) -> bytes:
    payload = bytearray([protocol.FRAME_MULTI])
    for sub in subs:
        payload += struct.pack(">I", len(sub)) + sub
    return struct.pack(">I", len(payload)) + bytes(payload)


def _compressing_encoder() -> FrameEncoder:
    enc = FrameEncoder()
    enc.compress = True
    return enc


# ----------------------------------------------------------------------
# codec round trips and adaptive guards
# ----------------------------------------------------------------------


def test_compressed_frame_round_trip_and_savings():
    enc, dec = _compressing_encoder(), FrameDecoder()
    env = {"id": 1, "op": "pane", "rows": ["a(i) = a(i-1)"] * 80}
    plain_len = len(FrameEncoder().encode(env, key=None))
    frame = enc.encode(env, key=None)
    assert frame[4] == protocol.FRAME_COMPRESSED
    assert len(frame) < plain_len / 2
    dec.feed(frame)
    assert dec.next() == env


def test_small_frames_ship_raw():
    """Below COMPRESS_MIN_BYTES the kind bit says raw — no guessing."""

    enc = _compressing_encoder()
    frame = enc.encode({"id": 1, "op": "ping"}, key=None)
    assert frame[4] == protocol.FRAME_RAW
    dec = FrameDecoder()
    dec.feed(frame)
    assert dec.next() == {"id": 1, "op": "ping"}


def test_trial_ratio_guard_ships_plain(monkeypatch):
    """When trial compression can't beat the ratio bar, the plain v5
    payload ships (kind bit intact), and still decodes."""

    monkeypatch.setattr(protocol, "COMPRESS_MAX_RATIO", 0.0)
    enc, dec = _compressing_encoder(), FrameDecoder()
    env = {"id": 1, "op": "pane", "rows": ["r"] * 300}
    frame = enc.encode(env, key=None)
    assert frame[4] == protocol.FRAME_RAW
    dec.feed(frame)
    assert dec.next() == env
    assert enc.frames_compressed == 0


def test_dictionary_seeded_from_delta_baseline():
    """The second keyed frame deflates against the first one's body —
    repeats across frames shrink like v5 deltas, but compressed."""

    enc, dec = _compressing_encoder(), FrameDecoder()
    rows = [f"row {i}: a(i) = a(i-1)" for i in range(120)]
    first = {"id": 1, "op": "pane", "session": "s", "rows": rows}
    second = {"id": 2, "op": "pane", "session": "s", "rows": rows[:-1] + ["x"]}
    f1 = enc.encode(first, key="pane:s")
    f2 = enc.encode(second, key="pane:s")
    assert len(f2) < len(f1) / 2  # dictionary hit
    dec.feed(f1 + f2)
    assert dec.next() == first
    assert dec.next() == second


def test_multi_frame_round_trip_batch():
    enc, dec = _compressing_encoder(), FrameDecoder()
    envs = [
        {"id": 1, "event": "analysis.progress", "seq": i, "data": {"n": i}}
        for i in range(10)
    ]
    frame = enc.encode_multi([dict(e) for e in envs])
    assert frame[4] in (protocol.FRAME_MULTI, protocol.FRAME_COMPRESSED)
    dec.feed(frame)
    batch = dec.next_batch()
    assert batch == envs
    assert dec.next() is None
    assert enc.coalesced_events == len(envs)


def test_multi_frame_byte_at_a_time():
    enc = _compressing_encoder()
    envs = [
        {"id": 1, "event": "analysis.progress", "seq": i, "data": {"n": i}}
        for i in range(8)
    ]
    blob = enc.encode_multi([dict(e) for e in envs]) + enc.encode(
        {"id": 1, "ok": True, "result": {}}, key=None
    )
    dec = FrameDecoder()
    out = []
    for i in range(len(blob)):
        dec.feed(blob[i : i + 1])
        while True:
            env = dec.next()
            if env is None:
                break
            out.append(env)
    assert out == envs + [{"id": 1, "ok": True, "result": {}}]


def test_compressed_frame_byte_at_a_time():
    enc = _compressing_encoder()
    env = {"id": 3, "op": "pane", "rows": ["same line"] * 90}
    blob = enc.encode(env, key="k")
    dec = FrameDecoder()
    out = []
    for i in range(len(blob)):
        dec.feed(blob[i : i + 1])
        env2 = dec.next()
        if env2 is not None:
            out.append(env2)
    assert out == [env]


# ----------------------------------------------------------------------
# hostile inputs
# ----------------------------------------------------------------------


def test_truncated_compressed_blob_rejected():
    inner = b"\x00" + json.dumps({"id": 1, "op": "x", "p": "y" * 300}).encode()
    good = _compressed_frame(inner)
    payload = good[4:-4]  # chop the deflate tail, keep framing valid
    bad = struct.pack(">I", len(payload)) + payload
    dec = FrameDecoder()
    dec.feed(bad)
    with pytest.raises(ProtocolError) as exc:
        dec.next()
    assert exc.value.type == protocol.BAD_REQUEST
    # The stream recovers: a later good frame decodes.
    dec.feed(FrameEncoder().encode({"id": 2, "op": "ping"}, key=None))
    assert dec.next() == {"id": 2, "op": "ping"}


def test_unknown_dictionary_id_rejected():
    inner = b"\x00" + json.dumps({"id": 1, "op": "x"}).encode()
    payload = (
        bytes([protocol.FRAME_COMPRESSED])
        + struct.pack(">H", 6)
        + b"ghost!"
        + _z(inner)
    )
    dec = FrameDecoder()
    dec.feed(struct.pack(">I", len(payload)) + payload)
    with pytest.raises(ProtocolError) as exc:
        dec.next()
    assert exc.value.type == protocol.BAD_REQUEST
    assert "dictionary" in str(exc.value)


def test_compressed_zip_bomb_capped():
    inner = b"\x00" + json.dumps({"id": 1, "pad": "z" * 100_000}).encode()
    frame = _compressed_frame(inner)
    assert len(frame) < 4096  # the bomb is small on the wire
    dec = FrameDecoder(max_frame_bytes=4096)
    dec.feed(frame)
    with pytest.raises(ProtocolError) as exc:
        dec.next()
    assert exc.value.type == protocol.PAYLOAD_TOO_LARGE


def test_nested_compressed_in_compressed_rejected():
    inner = _compressed_frame(b"\x00" + b"{}")[4:]  # kind-3 payload
    dec = FrameDecoder()
    dec.feed(_compressed_frame(inner))
    with pytest.raises(ProtocolError) as exc:
        dec.next()
    assert exc.value.type == protocol.BAD_REQUEST


def test_nested_multi_in_multi_rejected():
    sub = _multi_frame([b"\x00" + b"{}"])[4:]  # kind-4 payload
    dec = FrameDecoder()
    dec.feed(_multi_frame([sub]))
    with pytest.raises(ProtocolError) as exc:
        dec.next()
    assert exc.value.type == protocol.BAD_REQUEST


def test_empty_multi_frame_rejected():
    dec = FrameDecoder()
    dec.feed(_multi_frame([]))
    with pytest.raises(ProtocolError) as exc:
        dec.next()
    assert exc.value.type == protocol.BAD_REQUEST


def test_oversize_skip_spans_a_compressed_frame():
    """An oversized frame is skipped even when the *next* frame in the
    pipe is compressed — the skip is byte-counted, not kind-aware."""

    dec = FrameDecoder(max_frame_bytes=512)
    big = b"\x00" + json.dumps({"id": 9, "pad": "z" * 2000}).encode()
    oversized = struct.pack(">I", len(big)) + big
    enc = _compressing_encoder()
    good = enc.encode({"id": 10, "op": "pane", "rows": ["row"] * 60}, key=None)
    assert good[4] == protocol.FRAME_COMPRESSED
    blob = oversized + good
    # Feed in chunks so the skip must span feeds mid-compressed-frame.
    dec.feed(blob[:80])
    with pytest.raises(ProtocolError):
        dec.next()
    dec.feed(blob[80:])
    decoded = []
    while True:
        env = dec.next()
        if env is None:
            break
        decoded.append(env)
    assert decoded and decoded[-1]["id"] == 10


# ----------------------------------------------------------------------
# negotiation ladder + end-to-end invisibility
# ----------------------------------------------------------------------


@pytest.fixture(params=["asyncio"])  # the id names the transport
def server():
    srv = PedServer(max_workers=4)
    with served(srv) as port:
        yield srv, port
    srv.close()


def test_compress_requires_frames_first(server):
    """The ladder is strict: ``compress`` on a JSON connection is a
    structured bad-request, and the connection stays usable."""

    _, port = server
    with PedClient.connect(port=port) as c:
        with pytest.raises(PedRequestError) as exc:
            c.request(protocol.COMPRESS_OP, mode="zlib")
        assert exc.value.type == protocol.BAD_REQUEST
        assert c.request("ping")["pong"] is True


def test_unknown_compression_mode_rejected(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_frames() is True
        with pytest.raises(PedRequestError) as exc:
            c.request(protocol.COMPRESS_OP, mode="lz4")
        assert exc.value.type == protocol.BAD_REQUEST
        assert c.request("ping")["pong"] is True


def test_negotiate_compression_idempotent(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_compression() is True
        assert c.negotiate_compression() is True
        opened = c.request("open", session="s", source=SIMPLE)
        assert opened["units"] == ["p"]


def test_compressed_session_parity(server):
    """Identical event sequences and fingerprints, raw vs compressed."""

    _, port = server

    def run(mode: str):
        events = []
        with PedClient.connect(port=port) as c:
            if mode == "compress":
                assert c.negotiate_compression() is True
            sid = f"par-{mode}"
            for ev in c.stream("open", session=sid, source=SIMPLE):
                if ev.kind != "result":
                    events.append(
                        (ev.kind, json.dumps(ev.data, sort_keys=True))
                    )
            for i in range(4):
                for ev in c.stream(
                    "edit", session=sid, start=4, end=4,
                    text=f"         a(i) = i + {i}",
                ):
                    if ev.kind != "result":
                        events.append(
                            (ev.kind, json.dumps(ev.data, sort_keys=True))
                        )
            fp = c.request("fingerprint", session=sid)
        return events, fp

    raw_events, raw_fp = run("json")
    z_events, z_fp = run("compress")
    assert z_events == raw_events
    assert z_fp == raw_fp


def test_compressed_stream_ordering(server):
    """Coalescing preserves order: seqs strictly increase and every
    event precedes the terminal reply's seq."""

    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_compression() is True
        events = list(c.stream("open", session="ord", source=SIMPLE))
    assert events[-1].kind == "result"
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert all(s < events[-1].seq for s in seqs[:-1])


def test_net_counters_surface_in_metrics(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        assert c.negotiate_compression() is True
        c.request("open", session="m", source=SIMPLE)
        metrics = c.request("metrics", session="m")["metrics"]
    assert metrics["net.bytes_in"] > 0
    assert metrics["net.bytes_out"] > 0
    assert metrics["net.bytes_out_raw"] >= metrics["net.bytes_out"]
    assert 0 < metrics["net.compress_ratio"] <= 1.0
    assert "net.flushes" in metrics and metrics["net.flushes"] > 0
