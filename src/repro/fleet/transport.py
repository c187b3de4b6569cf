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

* *Reader*: one :class:`~repro.service.protocol.LineAssembler` (no
  ``readline`` limits to trip over).  A line within ``max_request_bytes
  + slack`` is parsed by :func:`~repro.service.protocol.parse_request`,
  which rejects over-limit requests with ``payload-too-large`` and a
  recovered id; a line so large it blows past the slack is answered the
  same way (id ``null``) and discarded as it streams in, without
  buffering it.  After a client negotiates deflate (the inline
  ``compress`` op), the same assembler inflates what it reads, one
  bounded slice at a time, so the caps hold on inflated bytes too.  A
  corrupt deflate stream gets one ``bad-request`` and the connection
  closes.
* *Outbound*: request threads never wait for the loop.  A request's
  ``emit`` (or a broadcast) appends its envelope to the connection's
  pending list under one lock and returns; the loop ships the list just
  before the next envelope it sends itself (a terminal reply, an
  inline answer), in the same flush, so a request's events and its
  reply cost one loop trip and one write.  A request still running
  after ``COALESCE_WINDOW`` gets at most one extra flush per window,
  and only while events are pending: a window opens at each flush and
  at each request's start, and the first envelope after a flush ships
  when its window is out — at once if it already is, else from a
  one-shot timer.  A request's ``emit`` blocks only while the
  connection holds ``OUTBOUND_QUEUE`` undelivered envelopes, so a slow
  client throttles its own requests' event streams, never the loop;
  closing the connection (or the request's timeout) frees it at once.
  A broadcast never blocks: it comes from another client's request or
  a router's shard reader, so it rides over the bound, and a client a
  second ``OUTBOUND_QUEUE`` behind is cut off (its socket aborted).
* *Writer*: one task writing what the loop handed over in order; it
  stamps ``seq`` (single consumer, so hand-over order *is* seq order
  *is* wire order), writes up to ``BURST_MAX`` handed-over items as
  one burst and awaits ``drain()`` once per burst.  On a deflated connection
  each burst is one sync flush of the connection's deflate stream
  (``net.*`` counters land in the host's stats either way).
* *Lifecycle*: each connection registers a broadcast listener and
  counts itself in the host's connection gauge.  A client disconnecting
  mid-stream just tears down its own connection — in-flight handlers
  finish and their events and replies are dropped, the server lives on.

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
from typing import Dict, List, Optional, Set

from ..service import protocol
from ..service.protocol import ProtocolError

__all__ = ["AsyncTransport", "serve_async_tcp", "serve_async_stdio"]

log = logging.getLogger(__name__)

#: Slack past ``max_request_bytes`` we still buffer, so slightly-over
#: lines reach :func:`parse_request` whole and keep their recovered id.
OVERSIZE_SLACK = 64 * 1024
#: Most envelopes one connection holds undelivered (pending or handed
#: to the writer, not yet written); requests' producers block at the
#: bound, broadcasts cut the client off at twice the bound.
OUTBOUND_QUEUE = 256
#: Reader chunk size.
CHUNK = 64 * 1024
#: Cap on envelopes written per burst before the writer must drain —
#: bounds the bytes buffered in the transport between drains.
BURST_MAX = 64


class _DeflateSwitch:
    """Outbound item carrying the ``compress`` ok reply.

    The write loop ships the reply as its *last* plain line and deflates
    everything after — one item, so no envelope a worker thread emits
    can land between the reply and the switch.
    """

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
        self._loop = asyncio.get_running_loop()
        #: Guards ``_pending``, ``_held``, ``_armed`` and ``_closing``
        #: against request threads; producers wait on it for room.
        self._room = threading.Condition()
        #: Envelopes emitted since the last flush, in emit order.
        self._pending: List[Dict] = []
        #: Envelopes taken in and not yet written.
        self._held = 0
        #: A window flush is scheduled (or its timer is being armed).
        self._armed = False
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Loop time of the last flush or request start: the next
        #: window flush is due ``COALESCE_WINDOW`` after it.
        self._window_start = self._loop.time()
        #: What the writer ships next, in wire order (loop side only).
        self._out: List = []
        self._wake = asyncio.Event()
        #: Set when the writer frees room in a full connection, for
        #: loop-side senders.
        self._roomy = asyncio.Event()
        self._closing = False
        self._torn_down = False
        self._inflight: Set[asyncio.Task] = set()
        self._listener_token = None
        self._writer_task: Optional[asyncio.Task] = None
        #: The read side; the write loop keeps its own encoder, created
        #: by the switch item it writes.
        self._lines = protocol.LineAssembler(
            self.host.max_request_bytes, OVERSIZE_SLACK
        )
        self._stats = getattr(self.host, "stats", None)

    # -- sending -------------------------------------------------------

    def _push(
        self, envelope: Dict, stop: Optional[threading.Event] = None
    ) -> None:
        """Request side: add one of a request's envelopes to the next
        flush, without a loop trip.  Blocks only while the connection is
        full — the backpressure edge between a request and its client's
        wire.  Dropped once the connection closes or ``stop`` (the
        request's timeout) is set."""

        with self._room:
            while True:
                if self._closing or (stop is not None and stop.is_set()):
                    return
                if self._held < OUTBOUND_QUEUE:
                    break
                self._room.wait()
            arm = self._take(envelope)
        if arm:
            self._call_soon(self._arm)

    def _broadcast(self, kind: str, data: Dict) -> None:
        """Host side: a connection-wide event (``invalidation``).  It
        never waits on this connection, because whoever broadcasts is
        another client's request thread or a router's shard reader:
        past ``OUTBOUND_QUEUE`` it rides over the bound, and a client a
        second ``OUTBOUND_QUEUE`` behind has stopped reading and is cut
        off."""

        with self._room:
            if self._closing:
                return
            if self._held >= 2 * OUTBOUND_QUEUE:
                # Free this connection's blocked producers now; the loop
                # drops the client.
                self._closing = True
                self._room.notify_all()
                job = self._cut_off
            elif self._take(protocol.event_envelope(None, kind, data)):
                job = self._arm
            else:
                return
        self._call_soon(job)

    def _take(self, envelope: Dict) -> bool:
        """Under ``_room``: add ``envelope`` to the next flush; ``True``
        when it is the first since a flush, so the loop must arm."""

        self._pending.append(envelope)
        self._held += 1
        if self._armed:
            return False
        self._armed = True
        return True

    def _call_soon(self, callback) -> None:
        try:
            self._loop.call_soon_threadsafe(callback)
        except RuntimeError:
            pass  # the loop closed under us: nobody is listening

    def _cut_off(self) -> None:
        """Loop side: drop a client that stopped reading; its read loop
        then ends and tears the connection down."""

        self._close_outbound()
        transport = getattr(self.writer, "transport", None)
        if transport is not None:
            transport.abort()

    def _arm(self) -> None:
        """Loop side: ship the pending events when the window is out —
        at once if it already is — unless a reply ships them first."""

        if not self._armed or self._timer is not None:
            return
        due = self._window_start + protocol.COALESCE_WINDOW
        if self._loop.time() >= due:
            self._flush()
        else:
            self._timer = self._loop.call_at(due, self._flush)

    def _flush(self, item=None) -> None:
        """Loop side: hand the pending events, then ``item``, to the
        writer, which ships them in one burst."""

        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._window_start = self._loop.time()
        with self._room:
            batch, self._pending = self._pending, []
            self._armed = False
            if item is not None:
                batch.append(item)
                self._held += 1
        if batch:
            self._out.extend(batch)
            self._wake.set()

    async def _send(self, item) -> None:
        """Loop side: ship ``item`` right after every event emitted so
        far, waiting while the connection is full."""

        while self._held >= OUTBOUND_QUEUE and not self._closing:
            self._flush()
            self._roomy.clear()
            await self._roomy.wait()
        if not self._closing:
            self._flush(item)

    def _release(self, n: int) -> None:
        """Writer side: ``n`` envelopes went out; wake whoever waits
        (only a full connection has anyone waiting)."""

        with self._room:
            was_full = self._held >= OUTBOUND_QUEUE
            self._held -= n
            if was_full:
                self._room.notify_all()
        if was_full:
            self._roomy.set()

    def _close_outbound(self) -> None:
        """Drop every later envelope and free every waiting producer."""

        with self._room:
            self._closing = True
            self._room.notify_all()
        self._roomy.set()
        self._wake.set()

    def _bump(self, name: str, n: int = 1) -> None:
        if self._stats is not None and n:
            self._stats.bump(name, n)

    def _ship(self, envelopes: List[Dict], encoder) -> bytes:
        """One burst's stamped envelopes → wire bytes, with ``net.*``
        accounting."""

        if not envelopes:
            return b""
        if encoder is None:
            data = protocol.encode_lines(envelopes)
            raw = len(data)
        else:
            before = encoder.bytes_raw
            data = encoder.encode_multi(envelopes)
            raw = encoder.bytes_raw - before
            events = sum(1 for env in envelopes if "event" in env)
            if events > 1:
                self._bump("net.coalesced_events", events)
        self._bump("net.bytes_out", len(data))
        self._bump("net.bytes_out_raw", raw)
        return data

    async def _write_loop(self) -> None:
        encoder: Optional[protocol.FrameEncoder] = None
        out = self._out
        try:
            while out or not self._closing:
                if not out:
                    self._wake.clear()
                    await self._wake.wait()
                    continue
                # One burst: what the loop handed over, up to BURST_MAX
                # items, written in one go with one ``drain()``.
                burst = out[:BURST_MAX]
                del out[:BURST_MAX]
                data = bytearray()
                envelopes: List[Dict] = []
                for item in burst:
                    if type(item) is _DeflateSwitch:
                        item.reply["seq"] = self._seq.next()
                        envelopes.append(item.reply)
                        data += self._ship(envelopes, None)
                        envelopes = []
                        encoder = protocol.FrameEncoder()
                        continue
                    item["seq"] = self._seq.next()
                    envelopes.append(item)
                data += self._ship(envelopes, encoder)
                if data:
                    self.writer.write(bytes(data))
                    self._bump("net.flushes")
                    await self.writer.drain()
                self._release(len(burst))
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # client went away; nothing to tell it
        finally:
            self._close_outbound()

    # -- request execution ---------------------------------------------

    def _run_request(self, req: Dict) -> None:
        rid = req.get("id")
        timed_out = threading.Event()

        def emit(kind: str, data: Dict) -> None:
            self._push(protocol.event_envelope(rid, kind, data), timed_out)

        self._window_start = self._loop.time()
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
                        # Under the lock: every event this request got
                        # in ships before the timeout reply, none after.
                        with self._room:
                            timed_out.set()
                            self._room.notify_all()
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
        if req.get("op") == protocol.COMPRESS_OP:
            rid = req.get("id")
            if req.get("mode") != protocol.COMPRESS_MODE:
                await self._send(
                    protocol.reply_error(
                        rid,
                        protocol.BAD_REQUEST,
                        f"unknown compression mode {req.get('mode')!r}",
                    )
                )
                return True
            reply = protocol.reply_ok(rid, {"compress": protocol.COMPRESS_MODE})
            if self._lines.decoder is None:
                # This request is the last plain line read, its reply
                # the last plain line written.
                self._lines.start_inflating()
                reply = _DeflateSwitch(reply)
            await self._send(reply)
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
        try:
            while True:
                try:
                    chunk = await self.reader.read(CHUNK)
                except (ConnectionError, OSError):
                    break
                if not chunk:
                    break  # EOF: client closed (possibly mid-request)
                self._bump("net.bytes_in", len(chunk))
                self._lines.feed(chunk)
                if not await self._dispatch_lines():
                    break
                if self.host.shutdown_event.is_set():
                    break
        finally:
            if self.finish_on_eof and not self.host.shutdown_event.is_set():
                await self.finish_requests(None)
            await self._teardown()

    async def _dispatch_lines(self) -> bool:
        """Handle every complete line read so far; ``False`` ends the
        connection."""

        while True:
            try:
                raw = self._lines.next()
            except ProtocolError as exc:
                await self._send(
                    protocol.reply_error(None, exc.type, str(exc))
                )
                if exc.type == protocol.PAYLOAD_TOO_LARGE:
                    continue
                return False  # a corrupt deflate stream cannot resync
            if raw is None:
                return True
            line = raw.decode("utf-8", errors="replace")
            if not await self._handle_line(line, len(raw)):
                return False

    async def _teardown(self) -> None:
        if self._torn_down:
            return
        self._torn_down = True
        self.host.remove_listener(self._listener_token)
        self.host.connections.leave()
        # Ship what is pending, free blocked producers, and let the
        # writer finish what it holds.
        self._flush()
        self._close_outbound()
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
        for conn in list(self._connections):
            await conn.finish_requests(self.drain_timeout)
        for conn in list(self._connections):
            await conn._teardown()
        if self._server is not None:
            # From Python 3.12 this also waits for the open connections.
            await self._server.wait_closed()

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
