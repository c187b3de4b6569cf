"""The Ped wire protocol: framing, envelopes, sequence ids.

Transport-agnostic half of the session server.  Everything that crosses
a connection is an *envelope* — a JSON object — carried as one JSON
line, the framing every peer speaks; after per-connection negotiation
the same lines travel inside one deflate stream per direction (see
*Per-connection deflate* below).  An envelope is one of three shapes:

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

**Per-connection deflate (v9).**  A connection starts on JSON lines.  A
client may send ``{"op": "compress", "mode": "deflate"}``; the transport
answers it *inline* with a JSON-line ``ok`` reply carrying
``{"compress": "deflate"}``, and both directions switch right after:
the request is the last plain line the server reads, the reply the last
plain line the client reads.  From there each direction is one raw
deflate stream (wbits −15, level 6) of the same JSON lines, its history
kept for the life of the connection (permessage-deflate with context
takeover, RFC 7692), and each writer burst ends in one sync flush.  A
server that does not speak the op answers ``unknown-op`` and a ``mode``
other than ``deflate`` gets ``bad-request``; either way the connection
stays on JSON lines, so JSON-only peers interoperate unchanged.

:class:`FrameEncoder` and :class:`FrameDecoder` are the two halves of
the codec, and :class:`LineAssembler` is the one line reader under both
framings: the request-size cap, the discard of an oversized line and
the inflation cap are the same code on a plain and a deflated
connection.  A corrupt deflate stream cannot resync, so it ends the
connection; a block cut off by a disconnect simply never completes.
"""

from __future__ import annotations

import json
import threading
import zlib
from typing import Dict, List, Optional

#: Protocol/feature revision, echoed by ``ping``.  v2: streaming events,
#: ``seq`` stamps, ``metrics``/``fingerprint`` ops, structured framing
#: errors (``payload-too-large``).  v3: pipeline-graph ops
#: (``graph.describe``, ``graph.last``, ``graph.plan``) and corpus batch
#: ops (``corpus.submit``, ``corpus.status``, ``corpus.query``) with
#: per-program ``analysis.progress`` events.  v4: fleet serving —
#: ``corpus.results``, two ops that exchanged pair-test memo entries
#: between shards, ``server.connections.*``/``server.uptime_s`` gauges in ``metrics``
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
#: v9: one negotiated encoding, ``{"op": "compress", "mode":
#: "deflate"}``, a raw-deflate stream of JSON lines per direction; the
#: v5 binary frames and the v6 ``zlib`` frame compression are gone
#: (``frames`` gets ``unknown-op``, ``zlib`` gets ``bad-request``).
#: v10: the two v4 memo exchange ops are gone (they now get
#: ``unknown-op``); shards share pair-test verdicts through one cache
#: directory's memo segments instead.
#: The envelope grammar itself is unchanged since v2, so clients that
#: stay on JSON lines interoperate with v10 servers (compression and
#: journal ops are strictly opt-in).
PROTOCOL_VERSION = 10

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


# ----------------------------------------------------------------------
# the wire: JSON lines, optionally inside one deflate stream
# ----------------------------------------------------------------------

#: The negotiation op a transport answers inline (never routed to the
#: host): ``{"op": "compress", "mode": "deflate"}``.
COMPRESS_OP = "compress"
COMPRESS_MODE = "deflate"
#: zlib level of the wire stream (6 = zlib's own default trade-off).
COMPRESS_LEVEL = 6
#: Raw deflate: no zlib header or checksum around the stream.
_WBITS = -15
#: Most bytes one :meth:`FrameDecoder.feed` inflates; the input behind
#: them waits in the decoder, so no single read allocates without bound.
INFLATE_SLICE = 64 * 1024

#: The transport's coalescing window: a request's events ship with its
#: reply, and a request still running gets at most one extra flush per
#: COALESCE_WINDOW seconds (counted from its start or the connection's
#: last flush), and only while events are pending.  An edit's
#: reanalysis emits its progress in bursts a few milliseconds apart, so
#: most edits answer inside one window and cost one flush.
COALESCE_WINDOW = 0.015


def encode_lines(envelopes: List[Dict]) -> bytes:
    """Envelopes → their JSON lines as UTF-8: the plain wire form, and
    what a deflate stream carries."""

    return "".join([encode(env) + "\n" for env in envelopes]).encode("utf-8")


class FrameEncoder:
    """The deflate codec's write side: one connection direction's JSON
    lines through one raw-deflate stream.

    The compressor keeps its history for the life of the connection
    (RFC 7692's context takeover), so a pane row or progress record the
    peer has seen before costs a few bytes.  Serialize calls externally
    (one writer task, or the client's write lock).  ``bytes_raw`` counts
    the JSON bytes compressed so far.
    """

    def __init__(self) -> None:
        self._z = zlib.compressobj(COMPRESS_LEVEL, zlib.DEFLATED, _WBITS)
        self.bytes_raw = 0

    def encode_multi(self, envelopes: List[Dict]) -> bytes:
        """One burst's JSON lines, compressed and sync-flushed once: the
        bytes end on a block boundary, so the peer can inflate every
        line of the burst from them alone."""

        raw = encode_lines(envelopes)
        self.bytes_raw += len(raw)
        return self._z.compress(raw) + self._z.flush(zlib.Z_SYNC_FLUSH)

    def encode(self, envelope: Dict) -> bytes:
        """A burst of one envelope."""

        return self.encode_multi([envelope])


class FrameDecoder:
    """The deflate codec's read side: wire bytes in, JSON-line bytes out.

    :meth:`feed` inflates at most :data:`INFLATE_SLICE` bytes per call
    and keeps the input behind them; :attr:`more` says whether another
    ``feed(b"")`` could return more.  A corrupt stream raises
    :class:`ProtocolError` (``bad-request``); a deflate stream cannot
    resync, so the connection must end.  A block a disconnect cuts off
    simply never completes.
    """

    def __init__(self) -> None:
        self._z = zlib.decompressobj(_WBITS)
        self._tail = b""
        self.more = False

    def feed(self, data: bytes) -> bytes:
        if self._tail:
            data = self._tail + data
        try:
            out = self._z.decompress(data, INFLATE_SLICE)
        except zlib.error as exc:
            raise ProtocolError(BAD_REQUEST, f"corrupt deflate stream: {exc}")
        if self._z.unused_data:
            raise ProtocolError(BAD_REQUEST, "bytes after the deflate stream")
        self._tail = self._z.unconsumed_tail
        self.more = bool(self._tail) or len(out) == INFLATE_SLICE
        return out


class LineAssembler:
    """Wire bytes in, complete lines out: the one reader both framings
    share.

    After :meth:`start_inflating`, every byte fed is deflate and passes
    through a :class:`FrameDecoder` one slice at a time, as :meth:`next`
    needs it.  Either way at most ``limit + slack`` bytes of one line,
    plus one read or slice, are ever held: past that :meth:`next` raises
    ``payload-too-large`` once, and the rest of the line is dropped as
    it arrives, up to its newline.  The slack lets a line slightly over
    ``limit`` arrive whole, so the request parser can still recover its
    id.
    """

    def __init__(self, limit: int, slack: int = 0) -> None:
        self.limit = limit
        self._cap = limit + slack
        self._buf = bytearray()
        #: ``_buf[:_scan]`` holds no newline.
        self._scan = 0
        self._discarding = False
        self._wire: List[bytes] = []
        self.decoder: Optional[FrameDecoder] = None

    def feed(self, data: bytes) -> None:
        """Bytes as they arrive; :meth:`next` splits (and inflates)."""

        if self.decoder is None:
            self._take(data)
        else:
            self._wire.append(data)

    def start_inflating(self) -> None:
        """Everything after the last line :meth:`next` returned is
        deflate, including bytes already fed."""

        self.decoder = FrameDecoder()
        if self._buf:
            self._wire.append(bytes(self._buf))
            self._buf.clear()
            self._scan = 0

    def next(self) -> Optional[bytes]:
        """The next complete line (without its newline), or ``None``
        until more bytes arrive; raises :class:`ProtocolError` for an
        oversized line or a corrupt deflate stream."""

        buf = self._buf
        while True:
            nl = buf.find(b"\n", self._scan)
            if nl >= 0:
                line = bytes(buf[:nl])
                del buf[: nl + 1]
                self._scan = 0
                return line
            self._scan = len(buf)
            if self._scan > self._cap:
                buf.clear()
                self._scan = 0
                self._discarding = True
                raise ProtocolError(
                    PAYLOAD_TOO_LARGE,
                    f"request over the {self.limit}-byte limit",
                )
            decoder = self.decoder
            if decoder is None:
                return None
            if self._wire:
                data = b"".join(self._wire)
                self._wire.clear()
            elif decoder.more:
                data = b""
            else:
                return None
            self._take(decoder.feed(data))

    def _take(self, data: bytes) -> None:
        if self._discarding:
            nl = data.find(b"\n")
            if nl < 0:
                return  # still inside the oversized line
            data = data[nl + 1 :]
            self._discarding = False
        self._buf += data
