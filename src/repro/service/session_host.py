"""The Ped session host: many named sessions behind one event core.

:class:`PedServer` is the transport-agnostic heart of the service — it
hosts any number of concurrent, named
:class:`~repro.editor.session.PedSession` instances and executes
protocol requests (see :mod:`repro.service.protocol` for the envelope
grammar) against them.  The transport (stdio or TCP — see
:mod:`repro.fleet.transport`) feeds it one request dict at a time and
writes back whatever envelopes it produces.

**Event core.**  :meth:`PedServer.execute` takes an optional ``emit``
callback; a request carrying ``"stream": true`` has its analysis
progress routed there as ``analysis.progress`` events (one per engine
stage, one per unit in the dependence stage, then the walk's ``graph``
summary) before the terminal reply; an op the host does not know gets
the structured ``unknown-op`` error.  Transports additionally register broadcast listeners
(:meth:`add_listener`): after a mutating operation (edit / transform /
undo / redo) the host diffs the session's unit spans and, when the
change dirties units that *other* sessions also hold, broadcasts an
``invalidation`` event naming the editing session, the changed units
and the sessions holding them — thin front ends re-query instead of
rendering stale analysis.

**Corpus batch.**  Besides per-session editing, the host runs
corpus-scale batch analysis: ``corpus.submit`` registers named programs
with a :class:`~repro.pipeline.corpus.CorpusRunner` that fans their
end-to-end analyses over the server's corpus pool (``--jobs N`` worker
processes; streaming requests get one ``analysis.progress`` event per
finished program),
``corpus.status`` polls a background batch and ``corpus.query`` answers
fleet-wide aggregate rollups (obstacle ranking, dependence-test tiers,
transformation applicability), each cached while the job's finished
records stand unchanged.

**Event-sourced sessions.**  Every session mutation flows through one
``_apply_mutation`` path and appends a typed record to the session's
mutation journal; on a server with a store, each record is also flushed
to a durable per-session journal file *before* the reply leaves, so the
v7 ops can page the history (``session.log``), rebuild the state at any
record (``session.replay``) and resurrect a killed server's sessions
(``session.restore``) — see :mod:`repro.editor.journal` and
:class:`~repro.service.persist.JournalFile`.

**Concurrency.**  Each request runs on a bounded worker-thread pool;
per-session locks serialize operations on the same session while
different sessions proceed in parallel.  A request may carry ``timeout``
(seconds); ``{"op": "cancel", "target": <id>}`` cancels a queued request
outright and flags a running one.  Every request is timed into the
server's stats as a ``req.<op>`` stage; ``{"op": "stats"}`` returns the
raw server snapshot and ``{"op": "metrics"}`` the merged service
metrics (same key names as the ``stats`` CLI command).  Transports bump
their wire accounting — ``net.bytes_in`` / ``net.bytes_out`` plus the
deflate and coalescing counters — into the *server-level* stats,
so ``metrics`` reports transport traffic even for a session-bound
request (the merge overlays ``net.*`` from the host onto the engine's
own counters).

Session engines analyze inline, on the request's worker thread; all
sessions share the server's persistent store and shared pair-test memo,
so a server with ``--cache-dir`` gives every client warm starts for
free — and N server *processes* pointed at one ``--cache-dir`` warm
each other through its records, the pair-test memo included as
immutable memo segments (:mod:`repro.service.persist`).
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..dependence.hierarchy import SharedPairMemo
from ..editor.journal import JournalError, SessionJournal, replay_journal
from ..editor.session import PedError, PedSession
from ..incremental.stats import EngineStats
from ..interproc.program import FeatureSet
from ..pipeline.aggregate import AGGREGATES
from ..pipeline.corpus import CorpusError, CorpusRunner
from . import protocol
from .metrics import ConnectionGauge, merged_metrics
from .persist import PersistentStore
from .pool import make_pool

log = logging.getLogger(__name__)


class _Cancelled(Exception):
    """Raised inside a request body when its cancel flag is set."""


class _BadRequest(Exception):
    pass


class _UnknownSession(Exception):
    pass


class _SessionExists(Exception):
    pass


@dataclass
class _Managed:
    """One hosted session plus the lock serializing its operations."""

    session: PedSession
    lock: threading.Lock
    #: Durable journal sink (servers with a ``--cache-dir`` only): the
    #: session's journal listener streams every mutation record here.
    journal_file: Optional[object] = None


class PedServer:
    """The protocol-independent core: sessions, dispatch, events."""

    def __init__(
        self,
        features: Optional[FeatureSet] = None,
        jobs: int = 1,
        cache_dir=None,
        max_workers: int = 8,
        stats: Optional[EngineStats] = None,
        max_request_bytes: int = protocol.MAX_REQUEST_BYTES,
    ) -> None:
        self.features = features
        self.stats = stats or EngineStats()
        self.pool = make_pool(jobs, stats=self.stats)
        self.store = (
            PersistentStore.at(cache_dir, stats=self.stats)
            if cache_dir
            else None
        )
        #: One pair-test memo for the whole server: every session's
        #: engine reads and extends it, so sessions warm each other
        #: (and, through the store's memo segments, sibling server
        #: processes warm this one).
        self.shared_memo = SharedPairMemo()
        #: Corpus-batch executor: jobs fan their per-program analyses
        #: over the corpus pool, and aggregate queries cache under
        #: content keys on the server stats.
        self.corpus = CorpusRunner(
            pool=self.pool, features=self.features, stats=self.stats
        )
        self.max_request_bytes = max_request_bytes
        self.sessions: Dict[str, _Managed] = {}
        self._sessions_lock = threading.Lock()
        from concurrent.futures import ThreadPoolExecutor

        self._work = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="ped-req"
        )
        self._cancelled: Set[object] = set()
        self._cancel_lock = threading.Lock()
        self._listeners: Dict[int, Callable[[str, Dict], None]] = {}
        self._listeners_lock = threading.Lock()
        self._listener_ids = 0
        self._tls = threading.local()
        self.shutdown_event = threading.Event()
        #: Live transport gauges: every connection (stdio or TCP)
        #: counts itself here, and ``metrics`` reports them as
        #: ``server.connections.open/.peak``.
        self.connections = ConnectionGauge()
        #: Process start mark for the ``server.uptime_s`` gauge.
        self.started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        self.shutdown_event.set()
        self._work.shutdown(wait=False, cancel_futures=True)
        self.pool.close()
        # Each journal closes under its session lock, so a mutation
        # still running finishes its append first.
        with self._sessions_lock:
            hosted = list(self.sessions.values())
        for managed in hosted:
            if managed.journal_file is not None:
                with managed.lock:
                    managed.journal_file.close()

    @property
    def executor(self):
        """The request thread pool transports hand blocking work to
        (the asyncio transport runs ``execute`` on it per request)."""

        return self._work

    # ------------------------------------------------------------------
    # cancellation registry
    # ------------------------------------------------------------------

    def request_cancel(self, target) -> None:
        with self._cancel_lock:
            self._cancelled.add(target)

    def _check_cancel(self, rid) -> None:
        if rid is None:
            return
        with self._cancel_lock:
            if rid in self._cancelled:
                self._cancelled.discard(rid)
                raise _Cancelled()

    def _clear_cancel(self, rid) -> None:
        with self._cancel_lock:
            self._cancelled.discard(rid)

    # ------------------------------------------------------------------
    # broadcast listeners (transports register one sink per connection)
    # ------------------------------------------------------------------

    def add_listener(self, sink: Callable[[str, Dict], None]) -> int:
        """Register a broadcast sink ``sink(event_kind, data)``; returns
        a token for :meth:`remove_listener`."""

        with self._listeners_lock:
            self._listener_ids += 1
            token = self._listener_ids
            self._listeners[token] = sink
        return token

    def remove_listener(self, token: int) -> None:
        with self._listeners_lock:
            self._listeners.pop(token, None)

    def _notify(self, kind: str, data: Dict) -> None:
        with self._listeners_lock:
            sinks = list(self._listeners.values())
        for sink in sinks:
            try:
                sink(kind, data)
            except Exception:  # noqa: BLE001 — one dead sink ≠ all
                log.warning("broadcast sink failed", exc_info=True)

    # ------------------------------------------------------------------
    # session helpers
    # ------------------------------------------------------------------

    def _managed(self, req: Dict) -> _Managed:
        name = req.get("session")
        if not isinstance(name, str) or not name:
            raise _BadRequest("request needs a 'session' name")
        with self._sessions_lock:
            managed = self.sessions.get(name)
        if managed is None:
            raise _UnknownSession(f"no session named {name!r}")
        return managed

    def _locked(self, managed: _Managed, rid):
        """Acquire the session lock, polling the cancel flag meanwhile."""

        while not managed.lock.acquire(timeout=0.05):
            self._check_cancel(rid)
        return managed

    def _session_engine(self):
        """A per-session engine sharing the server's store and memo.

        Each session gets its own :class:`EngineStats` (so per-session
        stage numbers stay meaningful) while disk counters accumulate on
        the shared server stats the store was created with.
        """

        from ..incremental.engine import AnalysisEngine

        return AnalysisEngine(
            features=self.features,
            stats=EngineStats(),
            store=self.store,
            shared_memo=self.shared_memo,
        )

    # ------------------------------------------------------------------
    # streaming plumbing
    # ------------------------------------------------------------------

    def _emit(self) -> Optional[Callable[[str, Dict], None]]:
        """The current request's event sink (set only for streaming
        requests executing on this worker thread)."""

        return getattr(self._tls, "emit", None)

    @contextmanager
    def _progress_stream(self, engine):
        """Route ``engine`` progress to the current request's stream.

        The caller holds the session lock for the hook's whole lifetime,
        so no other request can observe (or overwrite) the listener.
        """

        emit = self._emit()
        if emit is None:
            yield
            return

        def hook(phase: str, detail: Dict) -> None:
            emit(protocol.EV_PROGRESS, {"phase": phase, **detail})

        engine.progress = hook
        try:
            yield
        finally:
            engine.progress = None

    def _invalidation_for(
        self, name: str, managed: _Managed, old_source: str, op: str
    ) -> Optional[Dict]:
        """The ``invalidation`` broadcast for a mutation, or ``None``.

        Emitted only when the changed units are also held by *other*
        sessions — the "an edit in one session dirties records another
        session holds" condition.  Must be called while still holding
        the editing session's lock (the source must be stable).
        """

        new_source = managed.session.source
        if new_source == old_source:
            return None
        changed = managed.session.engine.changed_units(
            old_source, new_source
        )
        if not changed:
            return None
        holders: List[str] = []
        with self._sessions_lock:
            others = [
                (n, m) for n, m in self.sessions.items() if n != name
            ]
        for other_name, other in others:
            held = {u.name for u in other.session.sf.units}
            if held & changed:
                holders.append(other_name)
        if not holders:
            return None
        return {
            "session": name,
            "op": op,
            "units": sorted(changed),
            "holders": sorted(holders),
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def execute(
        self,
        req: Dict,
        emit: Optional[Callable[[str, Dict], None]] = None,
    ) -> Dict:
        """Run one request to a terminal reply envelope.

        ``emit(kind, data)``, when given and the request opted in with
        ``"stream": true``, receives typed events *before* this method
        returns — the transport writes them interleaved with other
        replies, and the terminal reply after.
        """

        rid = req.get("id")
        op = req.get("op")
        self._tls.emit = emit if (emit is not None and req.get("stream")) else None
        try:
            if not isinstance(op, str):
                raise _BadRequest("request needs an 'op' string")
            handler = getattr(
                self,
                f"_op_{op.replace('-', '_').replace('.', '_')}",
                None,
            )
            if handler is None:
                return protocol.reply_error(
                    rid, protocol.UNKNOWN_OP, f"unknown op {op!r}"
                )
            self._check_cancel(rid)
            with self.stats.timer(f"req.{op}"):
                result = handler(req)
            return protocol.reply_ok(rid, result)
        except _BadRequest as exc:
            return protocol.reply_error(rid, protocol.BAD_REQUEST, str(exc))
        except _UnknownSession as exc:
            return protocol.reply_error(
                rid, protocol.UNKNOWN_SESSION, str(exc)
            )
        except _SessionExists as exc:
            return protocol.reply_error(
                rid, protocol.SESSION_EXISTS, str(exc)
            )
        except _Cancelled:
            return protocol.reply_error(
                rid, protocol.CANCELLED, "request cancelled"
            )
        except CorpusError as exc:
            return protocol.reply_error(rid, protocol.BAD_REQUEST, str(exc))
        except (PedError, JournalError) as exc:
            return protocol.reply_error(rid, protocol.PED_ERROR, str(exc))
        except Exception as exc:  # noqa: BLE001 — must answer the client
            log.exception("internal error handling %r", op)
            return protocol.reply_error(
                rid, protocol.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._tls.emit = None
            self._clear_cancel(rid)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def _op_ping(self, req: Dict) -> Dict:
        return {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "sessions": len(self.sessions),
        }

    def _op_open(self, req: Dict) -> Dict:
        name = req.get("session")
        source = req.get("source")
        if not isinstance(name, str) or not name:
            raise _BadRequest("open needs a 'session' name")
        if not isinstance(source, str):
            raise _BadRequest("open needs 'source' text")
        with self._sessions_lock:
            if name in self.sessions and not req.get("replace"):
                raise _SessionExists(f"session {name!r} already open")
        # Building the session (a full analysis) happens outside the
        # registry lock so other sessions keep serving; the engine is
        # not yet shared, so streaming its progress needs no lock.
        engine = self._session_engine()
        with self._progress_stream(engine):
            session = PedSession(source, engine=engine)
        journal_file = self._attach_journal(name, session, fresh=True)
        with self._sessions_lock:
            previous = self.sessions.get(name)
            self.sessions[name] = _Managed(
                session, threading.Lock(), journal_file
            )
        if previous is not None and previous.journal_file is not None:
            previous.journal_file.close()
        return {
            "session": name,
            "units": [u.name for u in session.sf.units],
        }

    def _attach_journal(self, name: str, session: PedSession, fresh: bool):
        """Hook the session's journal to its durable file (store-backed
        servers only).  ``fresh`` starts a new file; otherwise the file
        already holds the session's records (the restore path) and is
        merely reopened for appends.  Durability is best-effort: an
        unwritable store degrades to in-memory journaling, logged."""

        if self.store is None:
            return None
        journal_file = self.store.journal(name)
        try:
            if fresh:
                journal_file.reset(session.journal.base_source)
            else:
                journal_file.open_append()
        except OSError as exc:
            log.warning(
                "cannot persist journal for session %r (%s); "
                "journaling in memory only",
                name,
                exc,
            )
            return None
        session.journal.listener = lambda record: journal_file.append(
            record.to_wire()
        )
        return journal_file

    def _op_close(self, req: Dict) -> Dict:
        name = req.get("session")
        with self._sessions_lock:
            managed = self.sessions.pop(name, None)
        if managed is None:
            raise _UnknownSession(f"no session named {name!r}")
        # The engine holds nothing to release, but the durable journal
        # handle closes (the file itself stays, so ``session.restore``
        # can resurrect the session later).
        if managed.journal_file is not None:
            managed.journal_file.close()
        return {"closed": name}

    def _op_list(self, req: Dict) -> Dict:
        with self._sessions_lock:
            names = sorted(self.sessions)
        return {"sessions": names}

    def _apply_mutation(
        self,
        req: Dict,
        op: str,
        mutate: Callable[[PedSession], Optional[str]],
        select: bool = False,
    ) -> Dict:
        """The single path every session mutation takes.

        Under the session lock: optionally move the selection from the
        request (``unit``/``loop``), run ``mutate`` with analysis
        progress routed to a streaming request, then compute the
        cross-session ``invalidation`` broadcast.  Journaling and
        durability need no code here — the session appends each record
        itself, and its journal listener streams the record to the
        per-session file while the lock is still held.
        """

        managed = self._managed(req)
        rid = req.get("id")
        name = req["session"]
        invalidation = None
        self._locked(managed, rid)
        try:
            self._check_cancel(rid)
            if select:
                if req.get("unit"):
                    managed.session.select_unit(req["unit"])
                if req.get("loop") is not None:
                    managed.session.select_loop(int(req["loop"]))
            old_source = managed.session.source
            with self._progress_stream(managed.session.engine):
                message = mutate(managed.session)
            invalidation = self._invalidation_for(
                name, managed, old_source, op
            )
        except KeyError as exc:
            raise _BadRequest(f"{op} needs {exc.args[0]!r}")
        finally:
            managed.lock.release()
        if invalidation:
            self._notify(protocol.EV_INVALIDATION, invalidation)
        return {"message": message}

    def _op_edit(self, req: Dict) -> Dict:
        return self._apply_mutation(
            req,
            "edit",
            lambda s: s.edit(
                int(req["start"]), int(req["end"]), req.get("text", "")
            ),
        )

    def _op_assert(self, req: Dict) -> Dict:
        text = req.get("text")
        if not isinstance(text, str):
            raise _BadRequest("assert needs assertion 'text'")
        return self._apply_mutation(
            req, "assert", lambda s: s.add_assertion(text), select=True
        )

    def _op_mark(self, req: Dict) -> Dict:
        return self._apply_mutation(
            req,
            "mark",
            lambda s: s.mark_dependence(int(req["dep"]), req["marking"]),
            select=True,
        )

    def _op_reclassify(self, req: Dict) -> Dict:
        return self._apply_mutation(
            req,
            "reclassify",
            lambda s: s.reclassify(req["var"], req["as"]),
            select=True,
        )

    def _op_select(self, req: Dict) -> Dict:
        managed = self._managed(req)
        self._locked(managed, req.get("id"))
        try:
            if req.get("unit"):
                managed.session.select_unit(req["unit"])
            if req.get("loop") is not None:
                managed.session.select_loop(int(req["loop"]))
        finally:
            managed.lock.release()
        return {
            "unit": managed.session.current_unit,
            "loop": managed.session.loop_index,
        }

    def _op_loops(self, req: Dict) -> Dict:
        managed = self._managed(req)
        self._locked(managed, req.get("id"))
        try:
            if req.get("unit"):
                managed.session.select_unit(req["unit"])
            ua = managed.session.unit_analysis
            loops = []
            for idx, nest in enumerate(ua.loops):
                info = ua.info_for(nest.loop)
                loops.append(
                    {
                        "index": idx,
                        "var": nest.loop.var,
                        "line": nest.loop.line,
                        "depth": nest.depth,
                        "parallelizable": info.parallelizable,
                        "obstacles": list(info.obstacles),
                    }
                )
        finally:
            managed.lock.release()
        return {"unit": managed.session.current_unit, "loops": loops}

    def _op_deps(self, req: Dict) -> Dict:
        managed = self._managed(req)
        self._locked(managed, req.get("id"))
        try:
            if req.get("unit"):
                managed.session.select_unit(req["unit"])
            if req.get("loop") is not None:
                managed.session.select_loop(int(req["loop"]))
            deps = [
                {
                    "id": d.id,
                    "kind": d.kind,
                    "var": d.var,
                    "vector": d.vector_str(),
                    "level": d.level,
                    "marking": d.marking,
                    "src_line": d.src_line,
                    "dst_line": d.dst_line,
                }
                for d in managed.session.dependences(
                    unfiltered=bool(req.get("unfiltered"))
                )
            ]
        finally:
            managed.lock.release()
        return {"unit": managed.session.current_unit, "deps": deps}

    def _op_source(self, req: Dict) -> Dict:
        managed = self._managed(req)
        self._locked(managed, req.get("id"))
        try:
            return {"source": managed.session.source}
        finally:
            managed.lock.release()

    def _op_fingerprint(self, req: Dict) -> Dict:
        """Digest of the session's current analysis fingerprint — the
        parity suite's cross-mode (serial / streamed / multi-process)
        comparison key."""

        from ..incremental.fingerprint import fingerprint_digest

        managed = self._managed(req)
        self._locked(managed, req.get("id"))
        try:
            digest = fingerprint_digest(managed.session.analysis)
        finally:
            managed.lock.release()
        return {"fingerprint": digest}

    def _op_diagnose(self, req: Dict) -> Dict:
        managed = self._managed(req)
        self._locked(managed, req.get("id"))
        try:
            if req.get("unit"):
                managed.session.select_unit(req["unit"])
            if req.get("loop") is not None:
                managed.session.select_loop(int(req["loop"]))
            advice = managed.session.diagnose(
                req["transform"], **(req.get("args") or {})
            )
        except KeyError as exc:
            raise _BadRequest(f"diagnose needs {exc.args[0]!r}")
        finally:
            managed.lock.release()
        return {
            "applicable": advice.applicable,
            "safe": advice.safe,
            "profitable": advice.profitable,
            "reasons": list(advice.reasons),
        }

    def _op_apply(self, req: Dict) -> Dict:
        return self._apply_mutation(
            req,
            "apply",
            lambda s: s.apply(req["transform"], **(req.get("args") or {})),
            select=True,
        )

    def _op_undo(self, req: Dict) -> Dict:
        return self._apply_mutation(
            req, "undo", lambda s: (s.undo(), "undone")[1]
        )

    def _op_redo(self, req: Dict) -> Dict:
        return self._apply_mutation(
            req, "redo", lambda s: (s.redo(), "redone")[1]
        )

    # ------------------------------------------------------------------
    # event-sourced session ops (protocol v7)
    # ------------------------------------------------------------------

    def _session_journal(self, req: Dict):
        """``(journal, origin)`` for the request's session: a copy of
        the live session's journal when the session is open, else the
        persisted one (``origin`` is ``"live"``/``"disk"``)."""

        name = req.get("session")
        if not isinstance(name, str) or not name:
            raise _BadRequest("request needs a 'session' name")
        with self._sessions_lock:
            managed = self.sessions.get(name)
        if managed is not None:
            self._locked(managed, req.get("id"))
            try:
                live = managed.session.journal
                journal = SessionJournal(
                    base_source=live.base_source,
                    records=list(live.records),
                )
            finally:
                managed.lock.release()
            return journal, "live"
        if self.store is not None:
            payload = self.store.journal(name).load()
            if payload is not None:
                return SessionJournal.from_wire(payload), "disk"
        raise _UnknownSession(
            f"no session named {name!r} (live or persisted)"
        )

    def _op_session_log(self, req: Dict) -> Dict:
        """Paged read of a session's mutation journal (live or persisted)."""

        journal, origin = self._session_journal(req)
        total = len(journal)
        start = req.get("start", 0)
        count = req.get("count")
        if not isinstance(start, int) or start < 0:
            raise _BadRequest("session.log 'start' must be a non-negative int")
        if count is not None and (not isinstance(count, int) or count < 0):
            raise _BadRequest("session.log 'count' must be a non-negative int")
        page = journal.records[start:]
        if count is not None:
            page = page[:count]
        return {
            "session": req["session"],
            "origin": origin,
            "total": total,
            "start": start,
            "count": len(page),
            "records": [r.to_wire() for r in page],
        }

    def _replay(self, journal, upto, progress_phase: str):
        """Replay a journal prefix on a scratch engine (sharing the
        server's store/memo, so previously seen states are warm),
        streaming one progress event per record; returns the session
        and its fingerprint.

        The stream is the base's analysis walk, one event per record,
        then the one walk that settles the replayed analysis."""

        from ..incremental.fingerprint import fingerprint_digest

        emit = self._emit()
        total = len(journal) if upto is None else upto

        def progress(i, record):
            if emit is not None:
                emit(
                    protocol.EV_PROGRESS,
                    {
                        "phase": progress_phase,
                        "record": i,
                        "total": total,
                        "op": record.op,
                    },
                )

        engine = self._session_engine()
        with self._progress_stream(engine):
            session = replay_journal(
                journal, upto, engine=engine, progress=progress
            )
            return session, fingerprint_digest(session.analysis)

    def _op_session_replay(self, req: Dict) -> Dict:
        """Rebuild the session's state at journal record ``upto`` (all
        records when omitted) and report its analysis fingerprint — the
        deterministic time-travel op the parity suite leans on."""

        journal, origin = self._session_journal(req)
        upto = req.get("upto")
        if upto is not None:
            if not isinstance(upto, int) or not 0 <= upto <= len(journal):
                raise _BadRequest(
                    f"session.replay 'upto' must be an int in "
                    f"0..{len(journal)}"
                )
        session, fingerprint = self._replay(journal, upto, "journal.replay")
        self.stats.bump("journal.replays")
        return {
            "session": req["session"],
            "origin": origin,
            "records": len(session.journal),
            "total": len(journal),
            "fingerprint": fingerprint,
            "units": [u.name for u in session.sf.units],
            "unit": session.current_unit,
            "loop": session.loop_index,
            "undo_depth": session.undo_depth,
        }

    def _op_session_restore(self, req: Dict) -> Dict:
        """Resurrect a session from its persisted journal (the
        crash-recovery path: a killed server reopens with every
        acknowledged mutation intact)."""

        name = req.get("session")
        if not isinstance(name, str) or not name:
            raise _BadRequest("session.restore needs a 'session' name")
        if self.store is None:
            raise _BadRequest(
                "session.restore needs a server with a --cache-dir"
            )
        with self._sessions_lock:
            if name in self.sessions and not req.get("replace"):
                raise _SessionExists(f"session {name!r} already open")
        payload = self.store.journal(name).load()
        if payload is None:
            raise _UnknownSession(
                f"no persisted journal for session {name!r}"
            )
        journal = SessionJournal.from_wire(payload)
        session, fingerprint = self._replay(journal, None, "journal.restore")
        # The file already holds every replayed record: reopen it for
        # appends and hook the listener only now, after the replay.
        journal_file = self._attach_journal(name, session, fresh=False)
        with self._sessions_lock:
            previous = self.sessions.get(name)
            self.sessions[name] = _Managed(
                session, threading.Lock(), journal_file
            )
        if previous is not None and previous.journal_file is not None:
            previous.journal_file.close()
        self.stats.bump("journal.restores")
        return {
            "session": name,
            "records": len(journal),
            "fingerprint": fingerprint,
            "units": [u.name for u in session.sf.units],
            "undo_depth": session.undo_depth,
            "redo_depth": session.redo_depth,
        }

    def _op_parallel_summary(self, req: Dict) -> Dict:
        managed = self._managed(req)
        self._locked(managed, req.get("id"))
        try:
            rows = managed.session.parallel_summary()
        finally:
            managed.lock.release()
        return {
            "units": [
                {"unit": name, "parallel": par, "loops": total}
                for name, par, total in rows
            ]
        }

    def _op_stats(self, req: Dict) -> Dict:
        if req.get("session"):
            managed = self._managed(req)
            return managed.session.engine.stats.snapshot()
        # Server-wide memo totals live on the shared memo itself (each
        # session engine publishes only into its own stats).
        self.stats.counters["memo.shared_hits"] = self.shared_memo.hits
        self.stats.counters["memo.shared_misses"] = self.shared_memo.misses
        self.stats.counters["memo.entries"] = len(self.shared_memo.entries)
        return self.stats.snapshot()

    def _op_metrics(self, req: Dict) -> Dict:
        """One merged service-metrics snapshot: pool gauges, disk
        counters, shared-memo totals and memo-segment counts —
        the same key set (and values) the ``stats`` CLI command renders.
        ``store`` names the server's store (:attr:`PersistentStore.id`,
        ``None`` without one), so a router over shards that share a
        cache directory counts its memo segments once.
        """

        if req.get("session"):
            managed = self._managed(req)
            metrics = merged_metrics(
                managed.session.engine.stats,
                pool=self.pool,
                memo=self.shared_memo,
                server=self,
                net_stats=self.stats,
            )
        else:
            metrics = merged_metrics(
                self.stats,
                pool=self.pool,
                memo=self.shared_memo,
                server=self,
            )
        store = self.store.id if self.store is not None else None
        return {"metrics": metrics, "store": store}

    # ------------------------------------------------------------------
    # corpus batch ops
    # ------------------------------------------------------------------

    def _corpus_programs(self, req: Dict):
        programs = req.get("programs")
        if not isinstance(programs, list):
            raise _BadRequest(
                "corpus.submit needs 'programs': a list of "
                "{'name', 'source'} objects"
            )
        out = []
        for item in programs:
            if not isinstance(item, dict):
                raise _BadRequest("each corpus program must be an object")
            out.append((item.get("name"), item.get("source")))
        return out

    def _op_corpus_submit(self, req: Dict) -> Dict:
        """Create or extend a corpus job and analyze its programs.

        A streaming request (``"stream": true``) — or one carrying
        ``"wait": true`` — runs the batch synchronously, emitting one
        ``analysis.progress`` event (phase ``corpus.program``) per
        finished program before the terminal reply.  Otherwise the batch
        runs in the background and ``corpus.status`` polls it.
        """

        job = self.corpus.submit(
            self._corpus_programs(req), job=req.get("job")
        )
        emit = self._emit()
        if emit is not None or req.get("wait"):
            progress = None
            if emit is not None:

                def progress(record: Dict) -> None:
                    emit(protocol.EV_PROGRESS, record)

            snapshot = self.corpus.run(job, progress=progress)
            return {**snapshot, "started": False}
        self._work.submit(self.corpus.run, job)
        return {**job.snapshot(), "started": True}

    def _op_corpus_status(self, req: Dict) -> Dict:
        job = req.get("job")
        if not isinstance(job, str) or not job:
            raise _BadRequest("corpus.status needs a 'job' id")
        return self.corpus.get(job).snapshot()

    def _op_corpus_results(self, req: Dict) -> Dict:
        """The raw per-program result records of one corpus job — the
        fleet router concatenates these across shards, and the parity
        bench compares their fingerprints against a single-host run."""

        name = req.get("job")
        if not isinstance(name, str) or not name:
            raise _BadRequest("corpus.results needs a 'job' id")
        job = self.corpus.get(name)
        records = job.result_records()
        return {
            "job": name,
            "count": len(records),
            "records": records,
        }

    def _op_corpus_query(self, req: Dict) -> Dict:
        """One aggregate rollup over a job's finished results."""

        name = req.get("job")
        aggregate = req.get("aggregate")
        if not isinstance(name, str) or not name:
            raise _BadRequest("corpus.query needs a 'job' id")
        if not isinstance(aggregate, str) or not aggregate:
            raise _BadRequest(
                "corpus.query needs an 'aggregate' name "
                f"(one of: {', '.join(sorted(AGGREGATES))})"
            )
        job = self.corpus.get(name)
        value, cached = self.corpus.query(job, aggregate)
        snapshot = job.snapshot()
        return {
            "job": name,
            "aggregate": aggregate,
            "cached": cached,
            "complete": snapshot["complete"],
            "done": snapshot["done"],
            "total": snapshot["total"],
            "value": value,
        }

    def _op_sleep(self, req: Dict) -> Dict:
        """Test/diagnostic op: a long, cooperatively-cancellable wait."""

        deadline = time.monotonic() + float(req.get("seconds", 1.0))
        rid = req.get("id")
        while time.monotonic() < deadline:
            self._check_cancel(rid)
            time.sleep(0.02)
        return {"slept": float(req.get("seconds", 1.0))}

    def _op_shutdown(self, req: Dict) -> Dict:
        self.shutdown_event.set()
        return {"shutting_down": True}
