"""The Ped wire protocol: framing, envelopes, sequence ids.

Transport-agnostic half of the session server.  Everything that crosses
a connection is an *envelope* — a JSON object — carried either as one
JSON line (the default framing every peer speaks) or, after per-
connection negotiation, inside length-prefixed binary frames with
delta-encoded repeats (see *Binary frames* below).  An envelope is one
of three shapes:

* **Request** (client → server)::

      {"id": ..., "op": ..., "session": ..., "stream": true?, ...params}

  ``id`` is the client's correlation key (any JSON scalar).  A request
  carrying ``"stream": true`` opts into server-push events before its
  terminal reply.

* **Reply** (server → client, terminal — exactly one per request)::

      {"id": ..., "ok": true,  "seq": N, "result": {...}}
      {"id": ..., "ok": false, "seq": N, "error": {"type": ..., "message": ...}}

* **Event** (server → client, zero or more, only for streaming requests
  and broadcasts)::

      {"id": ..., "event": "analysis.progress", "seq": N, "data": {...}}

  ``id`` names the originating request, or is ``null`` for connection-
  wide broadcasts (``invalidation``).  Event kinds: ``analysis.progress``
  (one per pipeline phase / per analyzed unit, and — for a streaming
  ``corpus.submit`` — one ``corpus.program`` record per finished corpus
  program) and ``invalidation`` (an edit in one session dirtied records
  another session holds).

**Ordering.**  Every outbound envelope carries ``seq``, a per-connection
monotonic sequence id assigned at write time: within one connection,
``seq`` strictly increases in wire order, and all events of a request
precede its terminal reply (events are written synchronously by the
request's handler; the reply is written after the handler returns).
Replies to *different* requests may interleave freely — ``id`` is the
correlation key, ``seq`` the total order.

**Framing errors.**  :func:`parse_request` turns a raw line into a
request dict or raises :class:`ProtocolError` with a structured error
type the transport can answer with directly: ``bad-request`` (malformed
JSON, non-object payload) or ``payload-too-large`` (line over the
server's byte limit; the request id is recovered when possible so the
error still correlates).  Error types emitted across the protocol:
``bad-request``, ``payload-too-large``, ``unknown-op``,
``unknown-session``, ``session-exists``, ``ped-error``, ``timeout``,
``cancelled``, ``shutting-down``, ``shard-lost`` (a fleet router lost
the shard holding the request's key mid-flight and ran out of retries)
and ``internal``.

**Memo gossip payloads.**  The cross-shard memo exchange (``memo.pull``
/ ``memo.push``) moves shared pair-test memo entries — nested tuples of
JSON scalars — over the wire; :func:`encode_memo_entries` /
:func:`decode_memo_entries` are the canonical tuple↔list codecs, so a
pulled entry pushed to a sibling shard round-trips to the exact key the
memo indexes on.

**Binary frames (v5).**  A connection starts in JSON-lines.  A client
may send ``{"op": "frames", "mode": "binary"}``; a v5 transport answers
it *inline* (a JSON-line ``ok`` reply carrying ``{"frames": "binary"}``)
and both directions switch to binary framing immediately after — the
request's bytes are the last JSON the server reads, the reply's the last
JSON the client reads.  An older server routes the unknown op to its
handler table and answers ``unknown-op``; the client stays on JSON-lines
(:class:`~repro.service.client.PedClient` does this fallback
automatically), so JSON-only peers interoperate unchanged.

One frame is a 4-byte big-endian payload length followed by the
payload; the payload's first byte is the frame *kind*:

* ``0`` **raw** — the envelope's JSON bytes follow; no delta state.
* ``1`` **baseline** — ``u16`` key length, the UTF-8 *delta key*, then
  the envelope's JSON bytes.  Installs the body as the key's baseline.
* ``2`` **delta** — key as above, then the ``crc32`` (u32) of the new
  body, then copy/insert ops replaying it from the key's baseline:
  ``0x01 off:u32 len:u32`` copies from the baseline, ``0x02 len:u32
  bytes`` inserts literals.  The reconstructed body (checksum-verified)
  becomes the key's new baseline.

Delta keys name an evolving stream: pane updates and progress events
key on ``(event kind, request id)``, requests on ``(op, session)``, and
replies on the originating request's ``(op, session)`` — successive
editor pane refreshes differ by a few lines of JSON, so frames carry
the edit, not the pane.  The key travels in the frame, so either side
may choose keys freely; :class:`FrameEncoder` falls back to a baseline
frame whenever the delta would not pay for itself, and to raw frames
for unkeyed envelopes.  :class:`FrameDecoder` raises
:class:`ProtocolError` on oversized, malformed, unknown-key or
checksum-failing frames; a frame truncated by disconnect simply never
completes.

**Compression + coalescing (v6).**  Two more frame kinds ride the same
length-prefixed stream, produced only after a second negotiation rung —
``{"op": "compress", "mode": "zlib"}``, answered inline like ``frames``
(and refused with ``bad-request`` until frames are negotiated, so the
ladder is strictly ``frames`` → ``compress``):

* ``3`` **compressed** — ``u16`` dictionary-key length, the key's UTF-8
  bytes (empty = no dictionary), then a zlib stream inflating to one
  complete payload of kind 0, 1 or 2 (or 4; never another 3).  The
  dictionary named by a non-empty key is the key's *current baseline on
  the receiving side* — the encoder compresses against the baseline it
  just replaced, which by construction is exactly what the decoder
  still holds, so no dictionary bytes ever cross the wire.
* ``4`` **multi** — repeated ``u32`` length + payload records, each of
  kind 0–2, decoded in order as if they were separate frames.  Bursts
  of ``analysis.progress`` / ``corpus.program`` events coalesce into
  one multi frame: mostly one repeated JSON shape, so wrapping the
  block in a kind-3 frame squeezes it far below per-record deltas.

Compression is *adaptive* per frame: payloads under
:data:`COMPRESS_MIN_BYTES`, and payloads whose trial compression fails
to beat :data:`COMPRESS_MAX_RATIO` × the plain encoding, ship in their
v5 form — the kind byte tells the decoder which it got, so the decoder
accepts all five kinds at any time and only the *encoder* is gated on
negotiation.  JSON-only and v5 peers are untouched: they never send
``compress``, so they never see a kind-3/4 frame.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from collections import deque
from difflib import SequenceMatcher
from typing import Dict, List, Optional

#: Protocol/feature revision, echoed by ``ping``.  v2: streaming events,
#: ``seq`` stamps, ``metrics``/``fingerprint`` ops, structured framing
#: errors (``payload-too-large``).  v3: pipeline-graph ops
#: (``graph.describe``, ``graph.last``, ``graph.plan``) and corpus batch
#: ops (``corpus.submit``, ``corpus.status``, ``corpus.query``) with
#: per-program ``analysis.progress`` events.  v4: fleet serving —
#: ``corpus.results``, memo gossip ops (``memo.pull``, ``memo.push``),
#: ``server.connections.*``/``server.uptime_s`` gauges in ``metrics``
#: and the ``shard-lost`` error type.  v5: the ``frames`` negotiation op
#: and the length-prefixed binary framing with delta-encoded repeats.
#: v6: the ``compress`` negotiation op, adaptive per-frame zlib
#: compression with baseline-seeded dictionaries (frame kind 3) and
#: multi-record event coalescing (frame kind 4).  v7: event-sourced
#: sessions — ``session.log`` (paged journal read), ``session.replay``
#: (rebuild the session at record N with streamed ``journal.replay``
#: progress) and ``session.restore`` (resurrect a killed server's
#: session from its persisted journal), plus the ``journal.*`` counters
#: in ``metrics``.  v8: the three ``graph.*`` ops are gone (they now
#: get ``unknown-op``); the per-walk ``graph`` progress event stays.
#: The envelope grammar itself is unchanged since v2, so clients that
#: never sent a ``graph.*`` op interoperate with v8 servers (binary
#: framing, compression and journal ops are strictly opt-in).
PROTOCOL_VERSION = 8

#: Default cap on one request line; oversized requests get a structured
#: ``payload-too-large`` error instead of an ad-hoc disconnect.
MAX_REQUEST_BYTES = 4 * 1024 * 1024

# Error types (the closed set the protocol may emit).
BAD_REQUEST = "bad-request"
PAYLOAD_TOO_LARGE = "payload-too-large"
UNKNOWN_OP = "unknown-op"
UNKNOWN_SESSION = "unknown-session"
SESSION_EXISTS = "session-exists"
PED_ERROR = "ped-error"
TIMEOUT = "timeout"
CANCELLED = "cancelled"
SHUTTING_DOWN = "shutting-down"
SHARD_LOST = "shard-lost"
INTERNAL = "internal"

# Event kinds.
EV_PROGRESS = "analysis.progress"
EV_INVALIDATION = "invalidation"

#: Transport-internal pseudo-event: a host that already holds a burst
#: of events (the fleet router relaying a coalesced frame from a shard)
#: hands the whole burst to the transport in one ``emit`` call as
#: ``event_envelope(rid, EV_BATCH, {"events": [{"kind": …, "data": …},
#: …]})``.  Transports expand it at write time — one multi-record frame
#: when the peer negotiated compression, individual envelopes otherwise
#: — so the batch shape itself never reaches a client.
EV_BATCH = "events.batch"


class ProtocolError(Exception):
    """A framing-level error with a structured ``type`` and, when it
    could be recovered from the offending line, the request ``id``."""

    def __init__(self, etype: str, message: str, request_id=None) -> None:
        super().__init__(message)
        self.type = etype
        self.request_id = request_id


class Sequencer:
    """Thread-safe monotonic counter: one per connection, stamping every
    outbound envelope so clients can assert total wire order."""

    def __init__(self) -> None:
        self._n = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            self._n += 1
            return self._n


def parse_request(
    line: str,
    max_bytes: int = MAX_REQUEST_BYTES,
    size: Optional[int] = None,
) -> Dict:
    """One raw line → a request dict, or :class:`ProtocolError`.

    ``size`` is the line's wire byte length when the transport already
    knows it (every byte-oriented transport does — it decoded the line
    from those bytes).  Without it the cap is enforced from the
    character count: a line of ``n`` characters occupies at most ``4n``
    UTF-8 bytes, so only lines within a factor 4 of the cap pay for a
    measuring re-encode — the old unconditional per-request copy was
    the service hot path's single biggest allocation.

    Oversized lines are rejected *after* a best-effort id recovery so
    the structured error still correlates with the client's request.
    """

    if size is None:
        n = len(line)
        if n * 4 <= max_bytes:
            size = n
        else:
            size = len(line.encode("utf-8", errors="replace"))
    if size > max_bytes:
        raise ProtocolError(
            PAYLOAD_TOO_LARGE,
            f"request over the {max_bytes}-byte limit",
            request_id=_recover_id(line),
        )
    try:
        req = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(BAD_REQUEST, f"bad JSON: {exc}")
    if not isinstance(req, dict):
        raise ProtocolError(BAD_REQUEST, "request must be a JSON object")
    return req


def _recover_id(line: str):
    """The ``id`` of a request we are about to reject, if parseable."""

    try:
        req = json.loads(line)
        if isinstance(req, dict):
            rid = req.get("id")
            if isinstance(rid, (str, int, float)) or rid is None:
                return rid
    except ValueError:
        pass
    return None


# ----------------------------------------------------------------------
# envelope builders (the transport stamps ``seq`` at write time)
# ----------------------------------------------------------------------


def reply_ok(rid, result) -> Dict:
    return {"id": rid, "ok": True, "result": result}


def reply_error(rid, etype: str, message: str) -> Dict:
    return {
        "id": rid,
        "ok": False,
        "error": {"type": etype, "message": message},
    }


def event_envelope(rid, kind: str, data: Optional[Dict] = None) -> Dict:
    return {"id": rid, "event": kind, "data": data or {}}


def encode(envelope: Dict) -> str:
    """One envelope → its wire line (no trailing newline)."""

    return json.dumps(envelope, sort_keys=True)


def is_event(envelope: Dict) -> bool:
    return "event" in envelope


def is_reply(envelope: Dict) -> bool:
    return "ok" in envelope and "event" not in envelope


def expand_event_batch(envelope: Dict) -> Optional[List[Dict]]:
    """The per-event envelopes of one :data:`EV_BATCH` envelope, or
    ``None`` when ``envelope`` is not a batch.  Transports call this at
    write time; the order of the records is the wire order."""

    if envelope.get("event") != EV_BATCH:
        return None
    rid = envelope.get("id")
    out: List[Dict] = []
    for rec in (envelope.get("data") or {}).get("events") or []:
        if isinstance(rec, dict):
            out.append(
                event_envelope(rid, rec.get("kind") or "", rec.get("data"))
            )
    return out


# ----------------------------------------------------------------------
# binary frames: length-prefixed envelopes with delta-encoded repeats
# ----------------------------------------------------------------------

#: The negotiation op a transport answers inline (never routed to the
#: session host) to switch a connection's framing.
FRAMES_OP = "frames"

#: The second negotiation rung: adaptive zlib compression + event
#: coalescing, valid only after ``frames`` (also answered inline).
COMPRESS_OP = "compress"

FRAME_RAW = 0
FRAME_BASELINE = 1
FRAME_DELTA = 2
FRAME_COMPRESSED = 3
FRAME_MULTI = 4

#: Payloads under this size never trial-compress — zlib's stream header
#: plus the dictionary adler32 eat any win on tiny frames.
COMPRESS_MIN_BYTES = 192
#: A trial compression must reach this fraction of the plain encoding
#: or the frame ships in its v5 form.
COMPRESS_MAX_RATIO = 0.9
#: zlib level for wire compression (6 = zlib's own default trade-off).
COMPRESS_LEVEL = 6

#: Event-coalescing knobs of the transport's write loop: a burst of
#: progress events flushes when it reaches COALESCE_MAX events, when any
#: non-coalescible envelope (a reply, a broadcast) arrives behind it, or
#: when the window expires — progress events trade at most this much
#: latency for riding a shared frame, and only on connections that
#: negotiated compression.  An edit's reanalysis emits its progress in
#: bursts a few milliseconds apart, so the window spans more than one
#: burst; terminal replies never wait on it.
COALESCE_MAX = 32
COALESCE_WINDOW = 0.015

_OP_COPY = 1
_OP_INSERT = 2

#: Bodies past this size skip the SequenceMatcher middle-diff (the
#: prefix/suffix trim still applies) — delta encoding stays O(pane),
#: never O(corpus payload).
_DELTA_DIFF_CAP = 256 * 1024

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")


def delta_key(envelope: Dict) -> Optional[str]:
    """The default delta-stream key of one envelope, or None for raw.

    Events key on (kind, owning request id): every ``analysis.progress``
    of one streamed request deltas against its predecessor.  Requests
    key on (op, session): an editor resubmitting a whole source after
    each keystroke sends the keystroke.  Replies carry nothing stable —
    transports that know the originating request pass an explicit key to
    :meth:`FrameEncoder.encode` instead (pane refreshes of one session
    delta beautifully).
    """

    if "event" in envelope:
        kind = envelope.get("event")
        if kind:
            return "e\x00%s\x00%r" % (kind, envelope.get("id"))
        return None
    op = envelope.get("op")
    if op and envelope.get("session") is not None:
        return "q\x00%s\x00%r" % (op, envelope.get("session"))
    return None


def reply_delta_key(req: Dict) -> Optional[str]:
    """The delta key a transport should use for ``req``'s reply."""

    op = req.get("op")
    if op and req.get("session") is not None:
        return "p\x00%s\x00%r" % (op, req.get("session"))
    return None


def _delta_ops(old: bytes, new: bytes) -> Optional[bytes]:
    """Copy/insert ops rebuilding ``new`` from ``old``, or None when a
    baseline frame would be no larger than the delta."""

    # Prefix/suffix trim: JSON envelopes of one stream differ in a
    # narrow middle (a few pane rows, one progress counter).
    lo = 0
    n_old, n_new = len(old), len(new)
    cap = min(n_old, n_new)
    while lo < cap and old[lo] == new[lo]:
        lo += 1
    hi = 0
    while hi < cap - lo and old[n_old - 1 - hi] == new[n_new - 1 - hi]:
        hi += 1
    mid_old = old[lo : n_old - hi]
    mid_new = new[lo : n_new - hi]
    ops: List[bytes] = []
    if lo:
        ops.append(struct.pack(">BII", _OP_COPY, 0, lo))
    if mid_new:
        if mid_old and len(mid_old) + len(mid_new) <= _DELTA_DIFF_CAP:
            sm = SequenceMatcher(None, mid_old, mid_new, autojunk=False)
            for tag, i1, i2, j1, j2 in sm.get_opcodes():
                if tag == "equal":
                    ops.append(
                        struct.pack(">BII", _OP_COPY, lo + i1, i2 - i1)
                    )
                elif j2 > j1:
                    ops.append(
                        struct.pack(">BI", _OP_INSERT, j2 - j1)
                        + mid_new[j1:j2]
                    )
        else:
            ops.append(
                struct.pack(">BI", _OP_INSERT, len(mid_new)) + mid_new
            )
    if hi:
        ops.append(struct.pack(">BII", _OP_COPY, n_old - hi, hi))
    blob = b"".join(ops)
    # 4 bytes of crc ride every delta frame; beyond that the framing
    # overhead is identical, so this is the exact break-even test.
    if len(blob) + 4 >= n_new:
        return None
    return blob


def _apply_delta(baseline: bytes, blob: bytes) -> bytes:
    parts: List[bytes] = []
    pos = 0
    end = len(blob)
    n_base = len(baseline)
    while pos < end:
        op = blob[pos]
        if op == _OP_COPY:
            if pos + 9 > end:
                raise ProtocolError(BAD_REQUEST, "truncated delta copy op")
            off, length = struct.unpack_from(">II", blob, pos + 1)
            if off + length > n_base:
                raise ProtocolError(
                    BAD_REQUEST, "delta copy outside baseline"
                )
            parts.append(baseline[off : off + length])
            pos += 9
        elif op == _OP_INSERT:
            if pos + 5 > end:
                raise ProtocolError(
                    BAD_REQUEST, "truncated delta insert op"
                )
            (length,) = struct.unpack_from(">I", blob, pos + 1)
            pos += 5
            if pos + length > end:
                raise ProtocolError(
                    BAD_REQUEST, "truncated delta insert bytes"
                )
            parts.append(blob[pos : pos + length])
            pos += length
        else:
            raise ProtocolError(BAD_REQUEST, f"unknown delta op {op}")
    return b"".join(parts)


class FrameEncoder:
    """Envelope → one binary frame, tracking per-key delta baselines.

    Single direction of one connection; serialize calls externally (the
    transports already write under a lock / from one writer task).

    Setting :attr:`compress` (after the ``compress`` negotiation)
    enables the adaptive v6 path: payloads at least
    :data:`COMPRESS_MIN_BYTES` long are trial-compressed — the *full
    body* in baseline form, zlib-dictionary-seeded from the key's
    previous baseline, so zlib's back-references subsume the copy/insert
    delta and entropy-code the rest — and ship compressed only when the
    result beats :data:`COMPRESS_MAX_RATIO` × the plain v5 encoding.
    ``bytes_raw`` / ``bytes_wire`` count what the plain encoding would
    have cost vs what actually shipped (length prefixes included).
    """

    def __init__(self) -> None:
        self._baselines: Dict[str, bytes] = {}
        #: Flipped by the transport when ``compress`` is negotiated.
        self.compress = False
        self.bytes_raw = 0
        self.bytes_wire = 0
        self.frames = 0
        self.frames_compressed = 0
        self.coalesced_events = 0

    # -- payload assembly ----------------------------------------------

    def _body(self, envelope: Dict, key: Optional[str]):
        """Serialize; update the key's baseline.  → (body, kb, old)."""

        body = json.dumps(envelope, sort_keys=True).encode("utf-8")
        if key is None:
            key = delta_key(envelope)
        if key is None:
            return body, None, None
        kb = key.encode("utf-8")
        old = self._baselines.get(key)
        self._baselines[key] = body
        return body, kb, old

    @staticmethod
    def _plain_payload(
        body: bytes, kb: Optional[bytes], old: Optional[bytes]
    ) -> bytes:
        """The v5 payload (kind 0/1/2) for one serialized envelope."""

        if kb is None:
            return b"\x00" + body
        if old is not None:
            blob = _delta_ops(old, body)
            if blob is not None:
                return (
                    b"\x02"
                    + _U16.pack(len(kb))
                    + kb
                    + _U32.pack(zlib.crc32(body))
                    + blob
                )
        return b"\x01" + _U16.pack(len(kb)) + kb + body

    @staticmethod
    def _baseline_payload(body: bytes, kb: Optional[bytes]) -> bytes:
        """The no-delta payload (kind 0/1) — what compression wraps."""

        if kb is None:
            return b"\x00" + body
        return b"\x01" + _U16.pack(len(kb)) + kb + body

    @staticmethod
    def _deflate(payload: bytes, zdict: Optional[bytes]) -> bytes:
        if zdict:
            co = zlib.compressobj(COMPRESS_LEVEL, zdict=zdict)
        else:
            co = zlib.compressobj(COMPRESS_LEVEL)
        return co.compress(payload) + co.flush()

    def _wrap(
        self,
        inner: bytes,
        dict_kb: Optional[bytes],
        zdict: Optional[bytes],
        plain_len: int,
    ) -> Optional[bytes]:
        """Trial-compress ``inner``; None when plain should ship."""

        if dict_kb is None or zdict is None:
            dict_kb, zdict = b"", None
        blob = self._deflate(inner, zdict)
        wrapped = b"\x03" + _U16.pack(len(dict_kb)) + dict_kb + blob
        if len(wrapped) <= COMPRESS_MAX_RATIO * plain_len:
            return wrapped
        return None

    def _ship(self, plain: bytes, wrapped: Optional[bytes]) -> bytes:
        self.frames += 1
        self.bytes_raw += 4 + len(plain)
        payload = plain if wrapped is None else wrapped
        if wrapped is not None:
            self.frames_compressed += 1
        self.bytes_wire += 4 + len(payload)
        return _U32.pack(len(payload)) + payload

    # -- public entry points -------------------------------------------

    def encode(self, envelope: Dict, key: Optional[str] = None) -> bytes:
        body, kb, old = self._body(envelope, key)
        plain = self._plain_payload(body, kb, old)
        wrapped = None
        if self.compress and len(plain) >= COMPRESS_MIN_BYTES:
            wrapped = self._wrap(
                self._baseline_payload(body, kb), kb, old, len(plain)
            )
        return self._ship(plain, wrapped)

    def encode_multi(
        self,
        envelopes: List[Dict],
        keys: Optional[List[Optional[str]]] = None,
    ) -> bytes:
        """Several envelopes → one multi-record frame (kind 4).

        In compress mode the whole record block is trial-compressed as
        one unit, dictionary-seeded from the first record whose key had
        a baseline *before this frame* (a within-frame predecessor is
        useless — the decoder inflates before it applies any record).
        """

        if len(envelopes) == 1:
            return self.encode(envelopes[0], keys[0] if keys else None)
        plain_parts = [b"\x04"]
        flat_parts = [b"\x04"]
        dict_kb = zdict = None
        seen = set()
        for i, envelope in enumerate(envelopes):
            body, kb, old = self._body(
                envelope, keys[i] if keys else None
            )
            sub = self._plain_payload(body, kb, old)
            plain_parts.append(_U32.pack(len(sub)) + sub)
            flat = self._baseline_payload(body, kb)
            flat_parts.append(_U32.pack(len(flat)) + flat)
            if kb is not None:
                if dict_kb is None and old is not None and kb not in seen:
                    dict_kb, zdict = kb, old
                seen.add(kb)
        plain = b"".join(plain_parts)
        wrapped = None
        if self.compress and len(plain) >= COMPRESS_MIN_BYTES:
            wrapped = self._wrap(
                b"".join(flat_parts), dict_kb, zdict, len(plain)
            )
        self.coalesced_events += len(envelopes)
        return self._ship(plain, wrapped)


class FrameDecoder:
    """Incremental frame parser: feed bytes, pull envelopes.

    ``feed`` only buffers; :meth:`next` yields one envelope, ``None``
    when the buffer holds no complete frame, or raises
    :class:`ProtocolError` — after which the decoder has already
    advanced past (or arranged to skip) the offending frame, so the
    transport can answer the error and keep reading.  A frame an
    in-flight disconnect truncates simply never completes.

    All five kinds decode at any time — negotiation gates only the
    *encoder* — so a peer that has not asked for compression still
    decodes a compressed stream correctly.  A multi-record frame yields
    its first envelope from :meth:`next` and queues the rest;
    :meth:`next_batch` returns a whole frame's worth at once, which is
    how the client keeps a coalesced burst together for relaying.
    """

    def __init__(self, max_frame_bytes: int = MAX_REQUEST_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()
        self._baselines: Dict[str, bytes] = {}
        self._skip = 0
        self._ready: "deque[Dict]" = deque()

    def feed(self, data: bytes) -> None:
        if self._skip:
            if len(data) <= self._skip:
                self._skip -= len(data)
                return
            data = data[self._skip :]
            self._skip = 0
        self._buf += data

    def pending(self) -> int:
        """Buffered bytes not yet consumed (0 ⇔ clean frame boundary)."""

        return len(self._buf)

    def next(self) -> Optional[Dict]:
        if self._ready:
            return self._ready.popleft()
        buf = self._buf
        if len(buf) < 4:
            return None
        (length,) = _U32.unpack_from(buf)
        # Payload = kind byte + frame body; the cap bounds the body so a
        # maximal JSON-lines request still fits its binary frame.
        if length > self.max_frame_bytes + 1:
            have = len(buf) - 4
            if have >= length:
                # The whole bad frame is already buffered: drop exactly
                # it, keeping whatever follows.
                del buf[: 4 + length]
                self._skip = 0
            else:
                del self._buf[:]
                self._skip = length - have
            raise ProtocolError(
                PAYLOAD_TOO_LARGE,
                f"frame over the {self.max_frame_bytes}-byte limit",
            )
        if len(buf) < 4 + length:
            return None
        payload = bytes(buf[4 : 4 + length])
        del buf[: 4 + length]
        return self._decode(payload)

    def next_batch(self) -> Optional[List[Dict]]:
        """One frame's envelopes — a list of 1 for plain frames, the
        whole record list for a multi frame — or ``None``."""

        env = self.next()
        if env is None:
            return None
        batch = [env]
        while self._ready:
            batch.append(self._ready.popleft())
        return batch

    def _decode(self, payload: bytes) -> Dict:
        if not payload:
            raise ProtocolError(BAD_REQUEST, "empty frame")
        if payload[0] == FRAME_COMPRESSED:
            payload = self._inflate(payload)
            if not payload:
                raise ProtocolError(BAD_REQUEST, "empty compressed frame")
            if payload[0] == FRAME_COMPRESSED:
                raise ProtocolError(BAD_REQUEST, "nested compressed frame")
        if payload[0] == FRAME_MULTI:
            return self._decode_multi(payload)
        return self._decode_one(payload)

    def _inflate(self, payload: bytes) -> bytes:
        """Kind-3 payload → the plain payload it wraps."""

        if len(payload) < 3:
            raise ProtocolError(BAD_REQUEST, "truncated compressed frame")
        (klen,) = _U16.unpack_from(payload, 1)
        blob_at = 3 + klen
        if len(payload) < blob_at:
            raise ProtocolError(BAD_REQUEST, "truncated compressed frame")
        zdict = None
        if klen:
            key = payload[3:blob_at].decode("utf-8", errors="replace")
            zdict = self._baselines.get(key)
            if zdict is None:
                raise ProtocolError(
                    BAD_REQUEST,
                    f"compressed frame names unknown dictionary {key!r}",
                )
        do = (
            zlib.decompressobj(zdict=zdict)
            if zdict is not None
            else zlib.decompressobj()
        )
        try:
            inner = do.decompress(
                payload[blob_at:], self.max_frame_bytes + 1
            )
        except zlib.error as exc:
            raise ProtocolError(
                BAD_REQUEST, f"bad compressed frame: {exc}"
            )
        if do.unconsumed_tail:
            raise ProtocolError(
                PAYLOAD_TOO_LARGE,
                f"compressed frame inflates over the "
                f"{self.max_frame_bytes}-byte limit",
            )
        if not do.eof:
            raise ProtocolError(
                BAD_REQUEST, "truncated compressed frame"
            )
        return inner

    def _decode_multi(self, payload: bytes) -> Dict:
        envs: List[Dict] = []
        pos, end = 1, len(payload)
        while pos < end:
            if pos + 4 > end:
                raise ProtocolError(
                    BAD_REQUEST, "truncated multi-frame record"
                )
            (length,) = _U32.unpack_from(payload, pos)
            pos += 4
            if pos + length > end:
                raise ProtocolError(
                    BAD_REQUEST, "truncated multi-frame record"
                )
            sub = payload[pos : pos + length]
            pos += length
            if sub[:1] and sub[0] in (FRAME_COMPRESSED, FRAME_MULTI):
                raise ProtocolError(
                    BAD_REQUEST, "nested multi-frame record"
                )
            envs.append(self._decode_one(sub))
        if not envs:
            raise ProtocolError(BAD_REQUEST, "empty multi frame")
        self._ready.extend(envs[1:])
        return envs[0]

    def _decode_one(self, payload: bytes) -> Dict:
        if not payload:
            raise ProtocolError(BAD_REQUEST, "empty frame")
        kind = payload[0]
        if kind == FRAME_RAW:
            return self._json(payload[1:])
        if kind not in (FRAME_BASELINE, FRAME_DELTA):
            raise ProtocolError(BAD_REQUEST, f"unknown frame kind {kind}")
        if len(payload) < 3:
            raise ProtocolError(BAD_REQUEST, "truncated frame key")
        (klen,) = _U16.unpack_from(payload, 1)
        body_at = 3 + klen
        if len(payload) < body_at:
            raise ProtocolError(BAD_REQUEST, "truncated frame key")
        key = payload[3:body_at].decode("utf-8", errors="replace")
        if kind == FRAME_BASELINE:
            body = payload[body_at:]
            self._baselines[key] = body
            return self._json(body)
        if len(payload) < body_at + 4:
            raise ProtocolError(BAD_REQUEST, "truncated delta checksum")
        baseline = self._baselines.get(key)
        if baseline is None:
            raise ProtocolError(
                BAD_REQUEST, f"delta against unknown key {key!r}"
            )
        (crc,) = _U32.unpack_from(payload, body_at)
        body = _apply_delta(baseline, payload[body_at + 4 :])
        if zlib.crc32(body) != crc:
            raise ProtocolError(
                BAD_REQUEST, f"delta checksum mismatch for key {key!r}"
            )
        self._baselines[key] = body
        return self._json(body)

    @staticmethod
    def _json(body: bytes) -> Dict:
        try:
            env = json.loads(body.decode("utf-8", errors="replace"))
        except ValueError as exc:
            raise ProtocolError(BAD_REQUEST, f"bad JSON in frame: {exc}")
        if not isinstance(env, dict):
            raise ProtocolError(
                BAD_REQUEST, "frame body must be a JSON object"
            )
        return env


# ----------------------------------------------------------------------
# memo gossip payloads (tuple-keyed memo entries over JSON)
# ----------------------------------------------------------------------


def _to_wire(value):
    if isinstance(value, tuple):
        return [_to_wire(v) for v in value]
    return value


def _from_wire(value):
    if isinstance(value, list):
        return tuple(_from_wire(v) for v in value)
    return value


def encode_memo_entries(entries: Dict) -> list:
    """Memo entries (tuple keys and values) → a JSON-safe pair list."""

    return [[_to_wire(k), _to_wire(v)] for k, v in entries.items()]


def decode_memo_entries(payload) -> Dict:
    """The inverse of :func:`encode_memo_entries`; raises
    :class:`ProtocolError` on a malformed payload."""

    if not isinstance(payload, list):
        raise ProtocolError(BAD_REQUEST, "memo entries must be a list")
    out: Dict = {}
    for item in payload:
        if not isinstance(item, list) or len(item) != 2:
            raise ProtocolError(
                BAD_REQUEST, "each memo entry must be a [key, value] pair"
            )
        out[_from_wire(item[0])] = _from_wire(item[1])
    return out
