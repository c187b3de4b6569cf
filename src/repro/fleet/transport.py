"""The one front end: every client connection on one asyncio loop.

``python -m repro serve`` (TCP), ``serve --stdio`` and the fleet
router all speak the :mod:`repro.service.protocol` envelopes through
this module.  Connections are multiplexed onto one :mod:`asyncio` loop
while request bodies run on the host's worker-thread pool
(``host.executor``) through its ``execute(req, emit)`` entry, so a
slow analysis never stalls the loop and thousands of idle connections
cost no threads.

**Host interface.**  Anything with ``execute(req, emit)``,
``executor``, ``shutdown_event``, ``max_request_bytes``,
``add_listener`` / ``remove_listener``, ``request_cancel`` and a
``connections`` gauge can sit behind this transport — the session host
(:class:`~repro.service.session_host.PedServer`) and the fleet router
(:class:`~repro.fleet.router.FleetRouter`) both do.

**Per-connection machinery.**

* *Reader*: a manual chunked line assembler (no ``readline`` limits to
  trip over).  A line within ``max_request_bytes + slack`` is parsed by
  :func:`~repro.service.protocol.parse_request`, which rejects
  over-limit requests with ``payload-too-large`` and a recovered id; a
  line so large it blows past the slack is answered the same way
  (id ``null``) and discarded as it streams in, without buffering it.
  After a client negotiates v5 binary frames (inline ``frames`` op),
  the reader hands the residual buffer to a
  :class:`~repro.service.protocol.FrameDecoder` and dispatches decoded
  envelopes instead of lines.
* *Writer*: one task draining a bounded outbound queue; it stamps
  ``seq`` (single consumer, so queue order *is* seq order *is* wire
  order), writes everything already queued as one burst and awaits
  ``drain()`` once per burst — TCP backpressure without a syscall and
  a loop round-trip per line.  On connections that negotiated the v6
  ``compress`` rung, a burst longer than one envelope is the queue's
  back-pressure watermark: runs of ``analysis.progress`` events inside
  it coalesce into one multi-record frame, and the adaptive zlib layer
  squeezes whatever frames pay for it (``net.*`` counters land in the
  host's stats either way).
  Worker threads enqueue via ``run_coroutine_threadsafe(...).result()``,
  which blocks the producing handler until the queue has room: a slow
  client throttles its own requests' event streams, never the loop.
* *Lifecycle*: each connection registers a broadcast listener and
  counts itself in the host's connection gauge.  A client disconnecting
  mid-stream just tears down its own queue — in-flight handlers finish
  and their replies are dropped, the server lives on.

**Graceful drain.**  ``shutdown`` (the op, or :meth:`AsyncTransport.
stop_background`) stops the accept loop, lets in-flight requests answer
within ``drain_timeout``, then closes the remaining connections.

**Stdio.**  :meth:`AsyncTransport.serve_stdio` runs the same connection
class over one stdin/stdout pair, whatever they are — pipes, regular
files or a TTY: a reader thread feeds stdin's bytes to the loop and
the writer side is a plain blocking write.  End of input means the
client has said everything, so every request already read is answered
before the connection closes (``serve --stdio < requests.jsonl`` gets
all its replies).
"""

from __future__ import annotations

import asyncio
import logging
import os
import sys
import threading
from typing import Dict, Optional, Set

from ..service import protocol
from ..service.protocol import ProtocolError

__all__ = ["AsyncTransport", "serve_async_tcp", "serve_async_stdio"]

log = logging.getLogger(__name__)

#: Slack past ``max_request_bytes`` we still buffer, so slightly-over
#: lines reach :func:`parse_request` whole and keep their recovered id.
OVERSIZE_SLACK = 64 * 1024
#: Bound on the per-connection outbound queue (envelopes, not bytes).
OUTBOUND_QUEUE = 256
#: Reader chunk size.
CHUNK = 64 * 1024
#: Cap on envelopes written per burst before the writer must drain —
#: bounds the bytes buffered in the transport between drains.
BURST_MAX = 64


class _FrameSwitch:
    """Outbound-queue sentinel carrying the ``frames`` ok reply.

    The write loop emits the reply as its *last* JSON line and encodes
    everything after as binary frames — one queue item, so no envelope
    a worker thread enqueues can land between the reply and the switch.
    """

    __slots__ = ("reply",)

    def __init__(self, reply: Dict) -> None:
        self.reply = reply


class _CompressSwitch:
    """Outbound-queue sentinel for the ``compress`` rung: the reply
    ships as a plain frame, everything after it may compress and
    progress-event runs start coalescing into multi-record frames."""

    __slots__ = ("reply",)

    def __init__(self, reply: Dict) -> None:
        self.reply = reply


class _AsyncConnection:
    """One client on the event loop.

    ``finish_on_eof`` answers every request already read when the
    input ends (stdio) instead of dropping in-flight replies (a TCP
    client that closed its socket is gone).
    """

    def __init__(
        self,
        transport: "AsyncTransport",
        reader: asyncio.StreamReader,
        writer,
        finish_on_eof: bool = False,
    ) -> None:
        self.transport = transport
        self.host = transport.host
        self.reader = reader
        self.writer = writer
        self.finish_on_eof = finish_on_eof
        self._seq = protocol.Sequencer()
        self._outq: "asyncio.Queue[Optional[Dict]]" = asyncio.Queue(
            maxsize=OUTBOUND_QUEUE
        )
        self._loop = asyncio.get_running_loop()
        self._closing = False
        self._torn_down = False
        self._inflight: Set[asyncio.Task] = set()
        self._listener_token = None
        self._writer_task: Optional[asyncio.Task] = None
        #: Reader-side framing flags (the write loop keeps its own
        #: state, flipped by the switch sentinels riding the queue).
        self._binary = False
        self._compress = False
        self._reply_keys: Dict[object, str] = {}
        self._stats = getattr(self.host, "stats", None)
        self._acct = [0, 0, 0, 0]  # wire, raw, compressed, coalesced

    # -- sending -------------------------------------------------------

    async def _send(self, envelope: Dict) -> None:
        if not self._closing:
            await self._outq.put(envelope)

    def _send_threadsafe(self, envelope: Dict) -> None:
        """Enqueue from a worker thread, blocking while the queue is
        full — the backpressure edge between handlers and the wire."""

        if self._closing:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self._send(envelope), self._loop
            ).result(timeout=60.0)
        except Exception:  # noqa: BLE001 — connection died underneath
            pass

    def _broadcast(self, kind: str, data: Dict) -> None:
        self._send_threadsafe(protocol.event_envelope(None, kind, data))

    def _bump(self, name: str, n: int = 1) -> None:
        if self._stats is not None and n:
            self._stats.bump(name, n)

    def _account_frames(self, encoder) -> None:
        """Bump ``net.*`` by the encoder's movement since last flush."""

        now = [
            encoder.bytes_wire,
            encoder.bytes_raw,
            encoder.frames_compressed,
            encoder.coalesced_events,
        ]
        prev, self._acct = self._acct, now
        self._bump("net.bytes_out", now[0] - prev[0])
        self._bump("net.bytes_out_raw", now[1] - prev[1])
        self._bump("net.frames_compressed", now[2] - prev[2])
        self._bump("net.coalesced_events", now[3] - prev[3])

    def _encode_item(self, item, encoder) -> bytes:
        """One outbound envelope → its wire bytes (seq stamped here)."""

        envelope = item
        envelope["seq"] = self._seq.next()
        if encoder is not None:
            key = None
            if protocol.is_reply(envelope):
                key = self._reply_keys.pop(envelope.get("id"), None)
            return encoder.encode(envelope, key)
        line = protocol.encode(envelope)
        data = line.encode("utf-8") + b"\n"
        self._bump("net.bytes_out", len(data))
        self._bump("net.bytes_out_raw", len(data))
        return data

    def _encode_group(self, envelopes, encoder) -> bytes:
        """A coalesced event run → one multi-record frame."""

        for envelope in envelopes:
            envelope["seq"] = self._seq.next()
        return encoder.encode_multi(envelopes)

    @staticmethod
    def _coalescible(envelope) -> bool:
        return envelope.get("event") == protocol.EV_PROGRESS

    async def _write_loop(self) -> None:
        encoder = None
        compress = False
        try:
            while True:
                item = await self._outq.get()
                # Burst-drain: pull everything already queued and write
                # it in one go, awaiting ``drain()`` once per burst
                # instead of once per envelope — under event-storm load
                # the kernel sees one large write, not N tiny ones.  A
                # burst longer than one item *is* the queue backing up:
                # on compressed connections, runs of progress events
                # inside it coalesce into one multi-record frame.
                burst = [item]
                while len(burst) < BURST_MAX:
                    try:
                        burst.append(self._outq.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                # Trickle aid: when a compressed connection has nothing
                # but progress events in hand, wait out the coalescing
                # window for company.  Anything non-coalescible
                # (a reply, a sentinel) aborts the wait immediately, so
                # terminal replies are never held back.
                if compress and all(
                    isinstance(b, dict) and self._coalescible(b)
                    for b in burst
                ):
                    deadline = self._loop.time() + protocol.COALESCE_WINDOW
                    while len(burst) < protocol.COALESCE_MAX:
                        remaining = deadline - self._loop.time()
                        if remaining <= 0:
                            break
                        try:
                            nxt = await asyncio.wait_for(
                                self._outq.get(), remaining
                            )
                        except asyncio.TimeoutError:
                            break
                        burst.append(nxt)
                        if not (
                            isinstance(nxt, dict) and self._coalescible(nxt)
                        ):
                            break
                out = bytearray()
                stop = False
                i, n = 0, len(burst)
                while i < n:
                    item = burst[i]
                    i += 1
                    if item is None:
                        stop = True
                        break
                    if type(item) is _FrameSwitch:
                        envelope = item.reply
                        envelope["seq"] = self._seq.next()
                        line = protocol.encode(envelope)
                        data = line.encode("utf-8") + b"\n"
                        self._bump("net.bytes_out", len(data))
                        self._bump("net.bytes_out_raw", len(data))
                        out += data
                        encoder = protocol.FrameEncoder()
                        continue
                    if type(item) is _CompressSwitch:
                        # The reply itself ships plain; the flag flips
                        # after, so nothing before it compresses.
                        out += self._encode_item(item.reply, encoder)
                        encoder.compress = True
                        compress = True
                        continue
                    batch = protocol.expand_event_batch(item)
                    if batch is not None:
                        # A host-side burst (router relay): keep it one
                        # frame when compressing, else fan it out.
                        if compress and batch:
                            out += self._encode_group(batch, encoder)
                        else:
                            for env in batch:
                                out += self._encode_item(env, encoder)
                        continue
                    if compress and self._coalescible(item):
                        j = i - 1
                        while (
                            j + 1 < n
                            and isinstance(burst[j + 1], dict)
                            and self._coalescible(burst[j + 1])
                        ):
                            j += 1
                        if j >= i:
                            out += self._encode_group(
                                burst[i - 1 : j + 1], encoder
                            )
                            i = j + 1
                            continue
                    out += self._encode_item(item, encoder)
                if out:
                    self.writer.write(bytes(out))
                    await self.writer.drain()
                    self._bump("net.flushes")
                    if encoder is not None:
                        self._account_frames(encoder)
                if stop:
                    break
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # client went away; nothing to tell it

    # -- request execution ---------------------------------------------

    def _run_request(self, req: Dict) -> None:
        rid = req.get("id")
        if self._binary:
            key = protocol.reply_delta_key(req)
            if key is not None:
                self._reply_keys[rid] = key
        timed_out = threading.Event()

        def emit(kind: str, data: Dict) -> None:
            if not timed_out.is_set():
                self._send_threadsafe(
                    protocol.event_envelope(rid, kind, data)
                )

        fut = self._loop.run_in_executor(
            self.host.executor, self.host.execute, req, emit
        )

        async def waiter() -> None:
            timeout = req.get("timeout")
            try:
                if timeout is not None:
                    try:
                        reply = await asyncio.wait_for(
                            asyncio.shield(fut), float(timeout)
                        )
                    except asyncio.TimeoutError:
                        timed_out.set()
                        self.host.request_cancel(rid)
                        fut.add_done_callback(
                            lambda f: f.exception()  # retrieve, drop
                        )
                        await self._send(
                            protocol.reply_error(
                                rid,
                                protocol.TIMEOUT,
                                f"no result within {timeout}s",
                            )
                        )
                        return
                else:
                    reply = await fut
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — must answer
                reply = protocol.reply_error(
                    rid, protocol.INTERNAL, f"{type(exc).__name__}: {exc}"
                )
            await self._send(reply)

        task = self._loop.create_task(waiter())
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    # -- one request line ----------------------------------------------

    async def _handle_line(self, line: str, size: int) -> bool:
        """Process one request line; ``False`` ends the connection."""

        if not line.strip():
            return True
        try:
            req = protocol.parse_request(
                line, max_bytes=self.host.max_request_bytes, size=size
            )
        except ProtocolError as exc:
            await self._send(
                protocol.reply_error(exc.request_id, exc.type, str(exc))
            )
            return True
        return await self._dispatch(req)

    async def _dispatch(self, req: Dict) -> bool:
        """One parsed request; ``False`` ends the connection."""

        if self.host.shutdown_event.is_set():
            await self._send(
                protocol.reply_error(
                    req.get("id"),
                    protocol.SHUTTING_DOWN,
                    "server stopping",
                )
            )
            return False
        if req.get("op") == protocol.FRAMES_OP:
            rid = req.get("id")
            if req.get("mode") != "binary":
                await self._send(
                    protocol.reply_error(
                        rid,
                        protocol.BAD_REQUEST,
                        f"unknown framing mode {req.get('mode')!r}",
                    )
                )
            elif self._binary:
                await self._send(protocol.reply_ok(rid, {"frames": "binary"}))
            else:
                self._binary = True
                await self._send(
                    _FrameSwitch(protocol.reply_ok(rid, {"frames": "binary"}))
                )
            return True
        if req.get("op") == protocol.COMPRESS_OP:
            rid = req.get("id")
            if req.get("mode") != "zlib":
                await self._send(
                    protocol.reply_error(
                        rid,
                        protocol.BAD_REQUEST,
                        f"unknown compression mode {req.get('mode')!r}",
                    )
                )
            elif not self._binary:
                await self._send(
                    protocol.reply_error(
                        rid,
                        protocol.BAD_REQUEST,
                        "compress requires binary frames "
                        "(negotiate frames first)",
                    )
                )
            elif self._compress:
                await self._send(
                    protocol.reply_ok(rid, {"compress": "zlib"})
                )
            else:
                self._compress = True
                await self._send(
                    _CompressSwitch(
                        protocol.reply_ok(rid, {"compress": "zlib"})
                    )
                )
            return True
        if req.get("op") == "cancel":
            self.host.request_cancel(req.get("target"))
            await self._send(
                protocol.reply_ok(
                    req.get("id"), {"cancelled": req.get("target")}
                )
            )
            return True
        if req.get("op") == "shutdown":
            # Inline: the reply must reach the client before this
            # connection (and then the transport) winds down.
            reply = await self._loop.run_in_executor(
                self.host.executor, self.host.execute, req
            )
            await self._send(reply)
            self.transport.begin_shutdown()
            return False
        self._run_request(req)
        return True

    # -- the read loop -------------------------------------------------

    async def run(self) -> None:
        self._listener_token = self.host.add_listener(self._broadcast)
        self.host.connections.enter()
        self._writer_task = self._loop.create_task(self._write_loop())
        hard_cap = self.host.max_request_bytes + OVERSIZE_SLACK
        buf = bytearray()
        discarding = False
        try:
            while True:
                try:
                    chunk = await self.reader.read(CHUNK)
                except (ConnectionError, OSError):
                    break
                if not chunk:
                    break  # EOF: client closed (possibly mid-request)
                self._bump("net.bytes_in", len(chunk))
                buf += chunk
                stop = False
                while True:
                    nl = buf.find(b"\n")
                    if nl < 0:
                        break
                    raw, buf = bytes(buf[:nl]), buf[nl + 1 :]
                    if discarding:
                        # Tail of a line already rejected as oversized.
                        discarding = False
                        continue
                    line = raw.decode("utf-8", errors="replace")
                    if not await self._handle_line(line, len(raw)):
                        stop = True
                        break
                    if self._binary:
                        # Negotiated: whatever the buffer still holds
                        # is the head of the frame stream.
                        await self._run_binary(bytes(buf))
                        stop = True
                        break
                if stop:
                    break
                if not discarding and len(buf) > hard_cap:
                    # A line so large we refuse to buffer it: answer
                    # now (the id is unrecoverable from a partial
                    # line) and discard until its newline arrives.
                    await self._send(
                        protocol.reply_error(
                            None,
                            protocol.PAYLOAD_TOO_LARGE,
                            f"request over the "
                            f"{self.host.max_request_bytes}-byte limit",
                        )
                    )
                    buf.clear()
                    discarding = True
                if self.host.shutdown_event.is_set():
                    break
        finally:
            if self.finish_on_eof and not self.host.shutdown_event.is_set():
                await self.finish_requests(None)
            await self._teardown()

    async def _run_binary(self, head: bytes) -> None:
        """Frame-mode read loop (after ``frames`` negotiation)."""

        decoder = protocol.FrameDecoder(self.host.max_request_bytes)
        if head:
            decoder.feed(head)
        while True:
            while True:
                try:
                    req = decoder.next()
                except ProtocolError as exc:
                    # The decoder already arranged to skip the bad
                    # frame; answer and keep reading.
                    await self._send(
                        protocol.reply_error(
                            exc.request_id, exc.type, str(exc)
                        )
                    )
                    continue
                if req is None:
                    break
                if not await self._dispatch(req):
                    return
            if self.host.shutdown_event.is_set():
                return
            try:
                chunk = await self.reader.read(CHUNK)
            except (ConnectionError, OSError):
                return
            if not chunk:
                return  # EOF: a partial frame just never completes
            self._bump("net.bytes_in", len(chunk))
            decoder.feed(chunk)

    async def _teardown(self) -> None:
        if self._torn_down:
            return
        self._torn_down = True
        self._closing = True
        self.host.remove_listener(self._listener_token)
        self.host.connections.leave()
        # Let queued envelopes flush, then stop the writer.
        try:
            await asyncio.wait_for(self._outq.put(None), timeout=1.0)
        except asyncio.TimeoutError:
            pass
        if self._writer_task is not None:
            try:
                await asyncio.wait_for(self._writer_task, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._writer_task.cancel()
        for task in list(self._inflight):
            task.cancel()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def finish_requests(self, timeout: Optional[float]) -> None:
        """Graceful-drain helper: wait for in-flight requests."""

        pending = [t for t in self._inflight if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=timeout)


class AsyncTransport:
    """The asyncio front end for one host (session server or router)."""

    def __init__(
        self,
        host,
        bind: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float = 5.0,
    ) -> None:
        self.host = host
        self.bind = bind
        self.port = port
        self.drain_timeout = drain_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_AsyncConnection] = set()
        self._shutdown = None  # asyncio.Event, created on the loop
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    # -- loop-side lifecycle -------------------------------------------

    def _attach(self) -> None:
        """Bind this transport to the running loop."""

        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()

    async def start(self) -> None:
        """Bind the listening socket (``self.port`` gets the real port)."""

        self._attach()
        self._server = await asyncio.start_server(
            self._on_client, self.bind, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _on_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        conn = _AsyncConnection(self, reader, writer)
        self._connections.add(conn)
        try:
            await conn.run()
        finally:
            self._connections.discard(conn)
            if self.host.shutdown_event.is_set():
                self.begin_shutdown()

    def begin_shutdown(self) -> None:
        """Flag the transport to drain and stop (loop-side, idempotent)."""

        if self._shutdown is not None:
            self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Serve until the host (or :meth:`begin_shutdown`) stops us."""

        if self._server is None:
            await self.start()

        async def poll_host() -> None:
            # The host's shutdown_event is a *threading* event (set by
            # handler threads); bridge it onto the loop.
            while not self.host.shutdown_event.is_set():
                await asyncio.sleep(0.1)
            self.begin_shutdown()

        poller = asyncio.get_running_loop().create_task(poll_host())
        try:
            await self._shutdown.wait()
        finally:
            poller.cancel()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests answer, then close."""

        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            await conn.finish_requests(self.drain_timeout)
        for conn in list(self._connections):
            await conn._teardown()

    async def serve_stdio(self, stdin, stdout) -> None:
        """Serve one client on a binary ``stdin``/``stdout`` pair until
        end of input or ``shutdown``.

        One path for every kind of stream: a daemon thread blocks in
        ``os.read`` on stdin's descriptor (no buffered-reader lock held
        at interpreter exit) and hands chunks to the loop; replies go
        out as blocking writes, which a pipe, a file and a TTY all take.
        """

        self._attach()
        loop = self._loop
        reader = asyncio.StreamReader()
        fd = stdin.fileno()

        def pump() -> None:
            try:
                while True:
                    try:
                        chunk = os.read(fd, CHUNK)
                    except OSError:
                        chunk = b""
                    if not chunk:
                        loop.call_soon_threadsafe(reader.feed_eof)
                        return
                    loop.call_soon_threadsafe(reader.feed_data, chunk)
            except RuntimeError:
                pass  # the loop closed under us: nobody is listening

        threading.Thread(target=pump, name="stdio-reader", daemon=True).start()
        conn = _AsyncConnection(
            self, reader, _BlockingWriter(stdout), finish_on_eof=True
        )
        await conn.run()

    # -- thread-side helpers (tests, embedding) ------------------------

    def start_background(self) -> int:
        """Run the transport on a dedicated thread; returns the port."""

        def runner() -> None:
            async def main() -> None:
                await self.start()
                self._ready.set()
                await self.serve_until_shutdown()

            try:
                asyncio.run(main())
            except Exception:  # noqa: BLE001 — surface in logs, not stderr
                log.exception("async transport died")
                self._ready.set()

        self._thread = threading.Thread(
            target=runner, name="fleet-async", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("async transport failed to start")
        return self.port

    def stop_background(self, timeout: float = 10.0) -> None:
        """Drain and stop a :meth:`start_background` transport."""

        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.begin_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=timeout)


class _BlockingWriter:
    """The slice of :class:`asyncio.StreamWriter` a connection uses,
    as blocking writes to a binary stream.  Stdio has exactly one
    client, so the loop waiting on its stdout is that client's own
    backpressure."""

    def __init__(self, stream) -> None:
        self.stream = stream

    def write(self, data: bytes) -> None:
        self.stream.write(data)
        self.stream.flush()

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass  # stdout belongs to the process, not the connection

    async def wait_closed(self) -> None:
        pass


def serve_async_tcp(host, bind: str = "127.0.0.1", port: int = 0) -> None:
    """Serve ``host`` over TCP until shutdown (blocking)."""

    transport = AsyncTransport(host, bind=bind, port=port)

    async def main() -> None:
        await transport.start()
        print(
            f"ped server listening on {transport.bind}:{transport.port}",
            file=sys.stderr,
            flush=True,
        )
        await transport.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


def serve_async_stdio(host) -> None:
    """Serve one client on the process's stdin/stdout until end of
    input or shutdown (blocking)."""

    transport = AsyncTransport(host)
    try:
        asyncio.run(transport.serve_stdio(sys.stdin.buffer, sys.stdout.buffer))
    except KeyboardInterrupt:
        pass
