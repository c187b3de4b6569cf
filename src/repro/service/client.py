"""A thin Python client for the Ped session server.

Speaks the JSON-lines envelope protocol of
:mod:`repro.service.protocol` over a pair of byte streams: a TCP
connection (:meth:`PedClient.connect`) or a spawned ``python -m repro
serve --stdio`` subprocess (:meth:`PedClient.spawn`).  A reader thread
matches replies to requests by id, so many requests may be in flight at
once; :meth:`request` is the blocking convenience wrapper and
:meth:`submit` the asynchronous one.

:meth:`negotiate_compression` switches the connection to one raw-deflate
stream per direction, whose history spans the whole connection, so a
pane refresh or a progress record the client has seen before costs a
few bytes.  ``stream()``/``on_event`` callers see the exact same event
sequence either way.  A server that answers ``unknown-op`` or
``bad-request`` leaves the connection on JSON lines.  A deflate stream
cannot resync, so a corrupt one fails every pending request with
:class:`ServerUnavailableError` and closes the connection.
``bytes_sent`` / ``bytes_received`` count wire traffic in every mode.

>>> client = PedClient.connect(port=7077)
>>> client.request("open", session="w", source=fortran_text)
>>> client.request("loops", session="w", unit="main")
>>> client.close()

**Streaming.**  A request sent with ``stream=True`` receives typed
server-push events before its terminal reply.  Two consumption styles:

* *Iterator* — :meth:`stream` yields each :class:`ServerEvent` as it
  arrives and finally a synthetic ``result`` event carrying the terminal
  reply (and its ``seq``), so ordering is assertable end to end::

      for ev in client.stream("open", session="w", source=src):
          if ev.kind == "analysis.progress":
              print(ev.data["phase"], ev.seq)
          elif ev.kind == "result":
              units = ev.data["units"]

* *Callback* — ``submit(..., stream=True, on_event=fn)`` invokes ``fn``
  with each event on the reader thread while the returned handle
  resolves as usual; ``fn`` must not block, or every other request on
  the connection waits with it.

Connection-wide broadcasts (``invalidation`` events with a ``null``
id — another session's edit dirtied units this client may hold) go to
listeners registered with :meth:`add_event_listener`.

Failed requests raise :class:`PedRequestError`, carrying the server's
structured error ``type`` (``ped-error``, ``timeout``, ``cancelled``…)
and message.  An ``unknown-op`` reply raises the sharper
:class:`UnsupportedOpError`, whose ``op`` attribute names the operation
the server does not speak — feature-detection against older servers
catches that one type instead of string-matching messages.

**Transport failures.**  A connect refusal, a reset socket or a broken
pipe raises :class:`ServerUnavailableError` (type ``connection``) — a
typed signal callers can branch on instead of catching raw ``OSError``.
Once the connection has ended (the reader saw EOF), outstanding
requests fail with it and every new request raises it at once, instead
of waiting out a timeout nothing could ever beat.
:meth:`PedClient.connect` takes ``retries``/``backoff``/``jitter``:
transient connect errors are retried with exponential backoff plus
jitter up to the bound.  Retries default *off* so tests (and anything
asserting fail-fast behavior) see the first error immediately; the
fleet router turns them on.
"""

from __future__ import annotations

import itertools
import json
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from . import protocol

#: Line size cap on the *client's* receive side.  Server replies (whole
#: panes, corpus rollups) dwarf requests, so the client accepts far more
#: than the server's request cap.
MAX_REPLY_LINE_BYTES = 256 * 1024 * 1024
#: Reader chunk size.
CHUNK = 64 * 1024
#: How long closing a TCP client waits for its reader to see EOF.
READER_STOP_S = 5.0


class PedRequestError(Exception):
    """A structured error reply from the server."""

    def __init__(self, etype: str, message: str) -> None:
        super().__init__(f"{etype}: {message}")
        self.type = etype
        self.message = message


class ServerUnavailableError(PedRequestError):
    """The server cannot be reached (connect refused/reset, send on a
    dead socket, or the retry budget exhausted).  Carries the underlying
    OS error text; ``attempts`` counts how many connects were tried."""

    def __init__(self, message: str, attempts: int = 1) -> None:
        super().__init__("connection", message)
        self.attempts = attempts


class UnsupportedOpError(PedRequestError):
    """The server answered ``unknown-op``: it does not speak this
    operation (an older server, or a typo).  ``op`` names the operation
    the client asked for, so feature-detection code can branch on it."""

    def __init__(self, op: str, message: str) -> None:
        super().__init__("unknown-op", message)
        self.op = op


def _error_from(op: Optional[str], err: Dict) -> PedRequestError:
    """The typed exception for one structured error reply."""

    etype = err.get("type", "unknown")
    message = err.get("message", "unknown error")
    if etype == "unknown-op":
        return UnsupportedOpError(op or "", message)
    return PedRequestError(etype, message)


@dataclass
class ServerEvent:
    """One server-push event (or the synthetic terminal ``result``)."""

    kind: str
    data: Dict = field(default_factory=dict)
    seq: Optional[int] = None
    request_id: object = None


#: Sentinel pushed into a stream queue when the terminal reply lands.
_DONE = object()


def _parse(line) -> Optional[Dict]:
    """One received line → its envelope; ``None`` for a blank or
    malformed line."""

    try:
        env = json.loads(line)
    except ValueError:
        return None
    return env if isinstance(env, dict) else None


def _event(env: Dict) -> "ServerEvent":
    return ServerEvent(
        kind=env.get("event", ""),
        data=env.get("data") or {},
        seq=env.get("seq"),
        request_id=env.get("id"),
    )


class PedClient:
    """One protocol connection over a pair of byte streams; safe to use
    from multiple threads."""

    def __init__(self, rfile, wfile, *, on_close=None) -> None:
        self._rfile = rfile
        self._wfile = wfile
        self._on_close = on_close
        #: Exact wire bytes in each direction, in every mode.
        self.bytes_sent = 0
        self.bytes_received = 0
        #: The read side; it starts inflating right after the reply to
        #: request ``_compress_rid``.
        self._lines = protocol.LineAssembler(MAX_REPLY_LINE_BYTES)
        self._compress_rid: object = None
        #: Non-None once deflate is negotiated (the write side).
        self._encoder: Optional[protocol.FrameEncoder] = None
        self._write_lock = threading.Lock()
        self._pending: Dict[object, Future] = {}
        self._ops: Dict[object, str] = {}
        self._pending_lock = threading.Lock()
        self._event_sinks: Dict[object, Callable[[ServerEvent], None]] = {}
        self._reply_seq: Dict[object, Optional[int]] = {}
        self._listeners: Dict[int, Callable[[ServerEvent], None]] = {}
        self._listener_ids = itertools.count(1)
        self._ids = itertools.count(1)
        self._closed = False
        #: Set (under ``_pending_lock``) once the reader thread is gone:
        #: nothing would ever resolve a request registered after that.
        self._eof = False
        self._reader = threading.Thread(
            target=self._read_loop, name="ped-client-reader", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retries: int = 0,
        backoff: float = 0.05,
        jitter: float = 0.25,
        timeout: Optional[float] = None,
    ) -> "PedClient":
        """Connect to a ``ped serve --port`` server.

        ``retries`` bounds how many *additional* connect attempts follow
        a transient failure (refused/reset/unreachable); attempt ``i``
        sleeps ``backoff * 2**i`` seconds first, stretched by up to
        ``jitter`` fraction of random extra so a fleet of reconnecting
        clients does not thunder in lockstep.  Exhausting the budget
        raises :class:`ServerUnavailableError` (never a raw ``OSError``).
        """

        attempts = max(0, int(retries)) + 1
        last: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                delay = backoff * (2 ** (attempt - 1))
                delay *= 1.0 + random.random() * max(0.0, jitter)
                time.sleep(delay)
            try:
                sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                sock.settimeout(None)
                break
            except OSError as exc:
                last = exc
        else:
            raise ServerUnavailableError(
                f"cannot connect to {host}:{port} after {attempts} "
                f"attempt(s): {last}",
                attempts=attempts,
            ) from last
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")

        def _close():
            # ``makefile`` objects hold io-refs on the fd, and the
            # reader thread keeps ``rfile`` open — a bare ``close()``
            # would leave the TCP connection half-alive (no FIN) and
            # the reader blocked forever.  ``shutdown`` tears the
            # stream down for real and wakes the reader with EOF; once
            # the reader has stopped, closing ``rfile`` drops the last
            # io-ref, so the fd closes now and not when the collector
            # gets to the socket.  The wait is bounded: a listener the
            # reader is calling may itself be waiting on the closer.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            if client._reader is not threading.current_thread():
                client._reader.join(timeout=READER_STOP_S)
            try:
                sock.close()
                rfile.close()
            except OSError:
                pass

        client = cls(rfile, wfile, on_close=_close)
        return client

    @classmethod
    def spawn(cls, argv=None, **popen_kwargs) -> "PedClient":
        """Spawn ``python -m repro serve --stdio`` and attach to it."""

        argv = argv or [sys.executable, "-m", "repro", "serve", "--stdio"]
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            **popen_kwargs,
        )

        def _close():
            try:
                proc.stdin.close()
            except OSError:
                pass
            proc.wait(timeout=10)
            proc.stdout.close()

        client = cls(proc.stdout, proc.stdin, on_close=_close)
        client.process = proc
        return client

    # ------------------------------------------------------------------
    # broadcast listeners
    # ------------------------------------------------------------------

    def add_event_listener(
        self, fn: Callable[[ServerEvent], None]
    ) -> int:
        """Register ``fn`` for connection-wide broadcast events
        (``invalidation``); returns a token for
        :meth:`remove_event_listener`.  Called on the reader thread."""

        token = next(self._listener_ids)
        with self._pending_lock:
            self._listeners[token] = fn
        return token

    def remove_event_listener(self, token: int) -> None:
        with self._pending_lock:
            self._listeners.pop(token, None)

    # ------------------------------------------------------------------
    # the wire
    # ------------------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            self._read_stream()
        except (OSError, ValueError):
            pass  # stream torn down under the reader
        except protocol.ProtocolError as exc:
            # A deflate stream cannot resync: nothing after this point
            # could be trusted, so fail everything now and hang up.
            self._fail_pending(f"corrupt stream: {exc}", eof=True)
            try:
                self.close()
            except subprocess.TimeoutExpired:
                pass  # a spawned server slow to exit; it got EOF
        finally:
            self._fail_pending("connection closed", eof=True)

    def _read_stream(self) -> None:
        """JSON lines over a byte stream, inflated from the line after
        the ``compress`` reply on, each envelope dispatched in order."""

        rfile = self._rfile
        read1 = getattr(rfile, "read1", rfile.read)
        lines = self._lines
        while True:
            data = read1(CHUNK)
            if not data:
                return
            self.bytes_received += len(data)
            lines.feed(data)
            while True:
                try:
                    line = lines.next()
                except protocol.ProtocolError as exc:
                    if exc.type != protocol.PAYLOAD_TOO_LARGE:
                        raise
                    continue  # dropped; its request times out
                if line is None:
                    break
                env = _parse(line)
                if env is None:
                    continue
                if (
                    env.get("id") == self._compress_rid
                    and env.get("ok")
                    and (env.get("result") or {}).get("compress")
                    == protocol.COMPRESS_MODE
                ):
                    # The last plain line: the server deflates
                    # everything after it.
                    lines.start_inflating()
                if "event" in env:
                    self._handle_event(env)
                else:
                    self._handle_reply(env)

    def _handle_event(self, env: Dict) -> None:
        ev = _event(env)
        if ev.request_id is None:
            with self._pending_lock:
                sinks = list(self._listeners.values())
            for fn in sinks:
                try:
                    fn(ev)
                except Exception:  # noqa: BLE001 — listener bug ≠ reader death
                    pass
            return
        with self._pending_lock:
            sink = self._event_sinks.get(ev.request_id)
        if sink is not None:
            try:
                sink(ev)
            except Exception:  # noqa: BLE001
                pass

    def _handle_reply(self, reply: Dict) -> None:
        rid = reply.get("id")
        with self._pending_lock:
            future = self._pending.pop(rid, None)
            op = self._ops.pop(rid, None)
            had_sink = self._event_sinks.pop(rid, None) is not None
            if had_sink:
                # Only streaming requests read the terminal seq back;
                # recording it for every reply would leak the map.
                self._reply_seq[rid] = reply.get("seq")
        if future is None or future.done():
            return
        if reply.get("ok"):
            future.set_result(reply.get("result"))
        else:
            future.set_exception(
                _error_from(op, reply.get("error") or {})
            )

    def _fail_pending(self, why: str, eof: bool = False) -> None:
        """Fail every outstanding request; ``eof`` (the reader is gone)
        also fails every later one at once."""

        with self._pending_lock:
            if eof:
                self._eof = True
            pending, self._pending = dict(self._pending), {}
            self._ops.clear()
            self._event_sinks.clear()
        for future in pending.values():
            if not future.done():
                future.set_exception(ServerUnavailableError(why))

    def _register(self, rid, op: str, future: Future) -> None:
        """Track one outgoing request (caller holds ``_pending_lock``)."""

        if self._closed or self._eof:
            raise ServerUnavailableError(f"connection closed; {op!r} not sent")
        self._pending[rid] = future
        self._ops[rid] = op

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------

    def submit(
        self,
        op: str,
        *,
        stream: bool = False,
        on_event: Optional[Callable[[ServerEvent], None]] = None,
        **params,
    ) -> "PendingReply":
        """Send one request; returns a handle resolving to its result.

        ``stream=True`` (implied by ``on_event``) opts the request into
        server-push events; ``on_event`` receives each
        :class:`ServerEvent` on the reader thread, so a callback that
        blocks holds up every reply on this connection.  A consumer that
        may block (a relay writing to a slower peer) reads
        :meth:`stream` on its own thread instead.
        """

        rid = params.pop("id", None)
        if rid is None:
            rid = next(self._ids)
        if on_event is not None:
            stream = True
        req = {"id": rid, "op": op, **params}
        if stream:
            req["stream"] = True
        future: Future = Future()
        with self._pending_lock:
            self._register(rid, op, future)
            if on_event is not None:
                self._event_sinks[rid] = on_event
        try:
            with self._write_lock:
                self._write_envelope(req)
        except (BrokenPipeError, ValueError, OSError) as exc:
            self._forget(rid)
            raise ServerUnavailableError(f"send failed: {exc}")
        return PendingReply(self, rid, future)

    def _forget(self, rid) -> None:
        """Stop tracking request ``rid``: its caller is done with it
        (answered or given up), so a late event or reply for it is
        dropped."""

        with self._pending_lock:
            self._pending.pop(rid, None)
            self._ops.pop(rid, None)
            self._event_sinks.pop(rid, None)
            self._reply_seq.pop(rid, None)

    def _write_envelope(self, req: Dict) -> None:
        """Send one request under the held write lock."""

        if self._encoder is not None:
            data = self._encoder.encode(req)
        else:
            data = (json.dumps(req) + "\n").encode("utf-8")
        self._wfile.write(data)
        self._wfile.flush()
        self.bytes_sent += len(data)

    def request(self, op: str, *, wait: Optional[float] = 30.0, **params):
        """Send one request and wait for its result (or raise)."""

        return self.submit(op, **params).result(wait)

    def negotiate_compression(self, wait: Optional[float] = 30.0) -> bool:
        """Switch both directions to one raw-deflate stream; True on
        success.

        Returns False, with the connection still on JSON lines and fully
        usable, when the server answers ``unknown-op`` or
        ``bad-request``.  The write lock is held across
        the exchange: the request must be the last plain line this side
        sends, so concurrent submitters block for one round trip and
        then come out deflated.  A timeout or a failed send closes the
        connection and raises :class:`ServerUnavailableError`: the
        server may switch at any moment after reading the request, so
        neither side could tell where the plain lines end.
        """

        with self._write_lock:
            if self._encoder is not None:
                return True
            rid = next(self._ids)
            future: Future = Future()
            with self._pending_lock:
                self._register(rid, protocol.COMPRESS_OP, future)
                self._compress_rid = rid
            try:
                self._write_envelope(
                    {
                        "id": rid,
                        "op": protocol.COMPRESS_OP,
                        "mode": protocol.COMPRESS_MODE,
                    }
                )
                result = future.result(wait)
            except (
                ServerUnavailableError, FutureTimeout, OSError, ValueError
            ) as exc:
                failure = str(exc) or f"no reply within {wait}s"
            except PedRequestError:
                return False
            else:
                if (result or {}).get("compress") != protocol.COMPRESS_MODE:
                    return False
                self._encoder = protocol.FrameEncoder()
                return True
        self.close()
        raise ServerUnavailableError(f"compress negotiation failed: {failure}")

    def stream(
        self, op: str, *, wait: Optional[float] = 60.0, **params
    ) -> Iterator[ServerEvent]:
        """Send a streaming request; yield its events as they arrive.

        The final yielded item is a synthetic ``result`` event whose
        ``data`` is the terminal reply's result and whose ``seq`` is the
        reply's sequence id (always greater than every event's — the
        protocol guarantee).  A structured error reply raises
        :class:`PedRequestError` instead of yielding ``result``.
        ``wait`` bounds the whole stream, as it bounds :meth:`request`:
        once it passes without the reply, :class:`queue.Empty` is
        raised.  Events queue up for the caller's thread, so the reader
        keeps serving the connection's other requests meanwhile.  A
        stream that ends in any way gives the request up
        (:meth:`_forget`): one that ends early (its deadline, or a
        caller that stops iterating) leaves nothing to fill its queue.
        """

        events: "queue.Queue" = queue.Queue()
        pending = self.submit(
            op, stream=True, on_event=events.put, **params
        )
        pending._future.add_done_callback(lambda _f: events.put(_DONE))
        deadline = None if wait is None else time.monotonic() + wait
        try:
            while True:
                item = events.get(
                    timeout=None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                if item is _DONE:
                    # Drain events that raced the terminal reply.
                    while True:
                        try:
                            late = events.get_nowait()
                        except queue.Empty:
                            break
                        if late is not _DONE:
                            yield late
                    result = pending.result(0)
                    with self._pending_lock:
                        seq = self._reply_seq.pop(pending.id, None)
                    yield ServerEvent(
                        kind="result",
                        data=result,
                        seq=seq,
                        request_id=pending.id,
                    )
                    return
                yield item
        finally:
            # After a reply this drops only an error reply's ``seq``.
            self._forget(pending.id)

    # ------------------------------------------------------------------
    # corpus batch convenience wrappers
    # ------------------------------------------------------------------

    def corpus_submit(
        self,
        programs,
        *,
        job: Optional[str] = None,
        wait: bool = False,
        timeout: Optional[float] = 300.0,
        **params,
    ):
        """Submit ``{name: source}`` (or ``[(name, source), ...]``)
        programs as one corpus batch; ``wait=True`` blocks until the
        whole batch is analyzed."""

        if isinstance(programs, dict):
            programs = sorted(programs.items())
        payload = [
            {"name": name, "source": source} for name, source in programs
        ]
        if job is not None:
            params["job"] = job
        if wait:
            params["wait"] = True
        return self.submit(
            "corpus.submit", programs=payload, **params
        ).result(timeout)

    def corpus_status(self, job: str):
        return self.request("corpus.status", job=job)

    def corpus_query(self, job: str, aggregate: str):
        """One fleet-wide rollup (``summary``, ``obstacles``, ``tiers``
        or ``transforms``) over a corpus job's finished results."""

        return self.request("corpus.query", job=job, aggregate=aggregate)

    def corpus_results(self, job: str):
        """The raw per-program result records of one corpus job."""

        return self.request("corpus.results", job=job)

    # -- event-sourced session ops (protocol v7) ------------------------

    def session_log(
        self,
        session: str,
        start: int = 0,
        count: Optional[int] = None,
        wait: Optional[float] = 30.0,
    ):
        """A page of the session's mutation journal (live or persisted)."""

        req = {"session": session, "start": start}
        if count is not None:
            req["count"] = count
        return self.request("session.log", wait=wait, **req)

    def session_replay(
        self,
        session: str,
        upto: Optional[int] = None,
        wait: Optional[float] = 120.0,
    ):
        """Rebuild the session's state at journal record ``upto`` (all
        records when omitted) and return its analysis fingerprint."""

        req = {"session": session}
        if upto is not None:
            req["upto"] = upto
        return self.request("session.replay", wait=wait, **req)

    def session_restore(
        self,
        session: str,
        replace: bool = False,
        wait: Optional[float] = 120.0,
    ):
        """Resurrect a session from its journal persisted on the server."""

        req = {"session": session}
        if replace:
            req["replace"] = True
        return self.request("session.restore", wait=wait, **req)

    def cancel(self, target) -> None:
        """Ask the server to cancel request ``target`` (fire and forget)."""

        self.submit("cancel", target=target)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            with self._write_lock:
                self._wfile.close()
        except (OSError, ValueError):
            pass
        if self._on_close is not None:
            self._on_close()
        self._fail_pending("client closed")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PendingReply:
    """Handle for one in-flight request."""

    def __init__(self, client: PedClient, rid, future: Future) -> None:
        self.client = client
        self.id = rid
        self._future = future

    def result(self, timeout: Optional[float] = 30.0):
        """The reply's result.  Once ``timeout`` passes without it, the
        request is given up: the client drops a late reply to it."""

        try:
            return self._future.result(timeout=timeout)
        except FutureTimeout:
            self.client._forget(self.id)
            raise

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> None:
        """Request server-side cancellation of this call."""

        self.client.cancel(self.id)
