"""The shard router: one addressable front end over a ring of shards.

A :class:`FleetRouter` speaks the same host interface the asyncio
transport serves (``execute(req, emit)`` + lifecycle attributes), so a
router *process* is just the fleet transport wrapped around this class
instead of a :class:`~repro.service.session_host.PedServer`.  Clients
cannot tell the difference: same envelopes, same error types, same
streamed events — the router forwards transparently.

**Routing.**  Every request carries a *program key*: the ``session``
name for editing ops, the program name for corpus programs.  Keys map
onto shard servers through a consistent-hash ring
(:class:`~repro.fleet.ring.HashRing`), so a fleet of N shards serves
one corpus with each program's analysis (and its session state, warm
memos, cached records) living on exactly one shard.  Ops with no key
hash on the op name; an op no shard knows comes back from its shard
as the structured ``unknown-op`` error.

**Fan-out.**  ``corpus.submit`` partitions the batch's programs onto
the ring and forwards one sub-batch per shard in parallel; per-shard
partial snapshots merge into one aggregate reply (and streamed
``corpus.program`` events are renumbered to fleet-wide ``done/total``
counts).  ``corpus.status`` / ``corpus.results`` merge the same way.
``corpus.query`` pulls every shard's raw result records and runs the
*same* rollup code a single host runs over the union — fleet aggregates
are byte-identical to the single-host run by construction.

**Shard death.**  Forwarding uses the retrying client
(:class:`~repro.service.client.ServerUnavailableError` after bounded
exponential backoff).  When a shard stays unreachable the router marks
it dead, rehashes the work onto the next node in the key's ring
preference and counts ``router.rehash``; corpus programs whose retry
budget exhausts become ``shard-lost`` error records in the merged reply
— the batch completes, losses are explicit, nothing hangs.  Dead shards
are retried last on later requests, so a restarted shard heals back
into the ring without operator action.

**Shard wire.**  Each lazily created shard client asks its shard for
deflate (``router.wire_deflate`` counts the hops that agreed); a shard
that refuses stays on JSON lines.  When a shard's burst of progress
events arrives in one read, the router relays it *as a burst*: the
shard client delivers it as one list, the router re-emits it as one
``events.batch`` pseudo-event, and the client-facing transport ships it
in one flush again (re-encoded for that connection, but with its
ordering and event payloads intact).

Cancellation (``cancel``) is connection-local on the router: forwarded
requests run under the shard client's own correlation ids, so the
router acknowledges cancels but cannot retarget in-flight shard work.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Set

from ..incremental.stats import EngineStats
from ..pipeline.aggregate import AGGREGATES, run_aggregate
from ..service import protocol
from ..service.client import (
    PedClient,
    PedRequestError,
    ServerUnavailableError,
)
from ..service.metrics import ConnectionGauge, derive_ratios
from .ring import HashRing

__all__ = ["FleetRouter"]

log = logging.getLogger(__name__)

#: The one per-store metric (distinct entries in a store's memo segments).
_PERSISTED = "memo.persisted_entries"


class _BadRequest(Exception):
    pass


class _ShardLost(Exception):
    """Every candidate shard for a key is unreachable."""


class FleetRouter:
    """Routes protocol requests onto a consistent-hash ring of shards."""

    def __init__(
        self,
        shards: List[str],
        *,
        retries: int = 2,
        backoff: float = 0.05,
        jitter: float = 0.25,
        replicas: int = 64,
        max_workers: int = 16,
        max_request_bytes: int = protocol.MAX_REQUEST_BYTES,
        forward_timeout: float = 600.0,
        stats: Optional[EngineStats] = None,
    ) -> None:
        if not shards:
            raise ValueError("a fleet router needs at least one shard")
        self.ring = HashRing(shards, replicas=replicas)
        self.retries = retries
        self.backoff = backoff
        self.jitter = jitter
        self.forward_timeout = forward_timeout
        self.stats = stats or EngineStats()
        self.max_request_bytes = max_request_bytes
        self.connections = ConnectionGauge()
        self.started_monotonic = time.monotonic()
        self.shutdown_event = threading.Event()
        self._work = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="fleet-route"
        )
        # Fan-out runs on its own pool: ``_work`` is the pool the
        # transport drives ``execute`` on, and a corpus fan-out waiting
        # for sub-tasks queued behind it on the same pool would deadlock.
        self._fan = ThreadPoolExecutor(
            max_workers=max(4, max_workers), thread_name_prefix="fleet-fan"
        )
        self._clients: Dict[str, PedClient] = {}
        self._clients_lock = threading.Lock()
        self._dead: Set[str] = set()
        self._listeners: Dict[int, Callable[[str, Dict], None]] = {}
        self._listeners_lock = threading.Lock()
        self._listener_ids = 0
        #: Corpus job -> the shards holding its programs.
        self._job_shards: Dict[str, Set[str]] = {}
        #: Corpus job -> program -> shard-lost error record.
        self._lost: Dict[str, Dict[str, Dict]] = {}
        self._jobs_lock = threading.Lock()
        self._job_ids = 0

    # ------------------------------------------------------------------
    # host interface (what the transport needs)
    # ------------------------------------------------------------------

    @property
    def executor(self) -> ThreadPoolExecutor:
        return self._work

    def close(self) -> None:
        self.shutdown_event.set()
        self._work.shutdown(wait=False, cancel_futures=True)
        self._fan.shutdown(wait=False, cancel_futures=True)
        with self._clients_lock:
            clients, self._clients = dict(self._clients), {}
        for client in clients.values():
            try:
                client.close()
            except Exception:  # noqa: BLE001 — teardown best-effort
                pass

    def request_cancel(self, target) -> None:
        # Connection-local (see module docstring): acknowledge, no-op.
        self.stats.bump("router.cancel_ignored")

    def add_listener(self, sink: Callable[[str, Dict], None]) -> int:
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
    # shard connections
    # ------------------------------------------------------------------

    def _client(self, shard: str) -> PedClient:
        """The (shared, lazily created) client for one shard."""

        with self._clients_lock:
            client = self._clients.get(shard)
        if client is not None:
            return client
        host, _, port = shard.rpartition(":")
        client = PedClient.connect(
            host or "127.0.0.1",
            int(port),
            retries=self.retries,
            backoff=self.backoff,
            jitter=self.jitter,
        )
        # Relay shard broadcasts (invalidation) to this router's
        # clients; the shard's null-id events keep their null id.
        client.add_event_listener(
            lambda ev: self._notify(ev.kind, ev.data)
        )
        # A shard that refuses deflate still joins, on JSON lines.
        if client.negotiate_compression():
            self.stats.bump("router.wire_deflate")
        with self._clients_lock:
            race = self._clients.get(shard)
            if race is not None:
                client.close()
                return race
            self._clients[shard] = client
        self._dead.discard(shard)
        return client

    def _drop_client(self, shard: str) -> None:
        with self._clients_lock:
            client = self._clients.pop(shard, None)
        if client is not None:
            try:
                client.close()
            except Exception:  # noqa: BLE001
                pass
        self._dead.add(shard)
        self.stats.bump("router.shard_lost")
        log.warning("shard %s unreachable — marked dead", shard)

    def _candidates(self, key: str) -> List[str]:
        """Ring preference for ``key``, live shards first, dead ones
        last (so a restarted shard heals without operator action)."""

        pref = self.ring.preference(key)
        live = [s for s in pref if s not in self._dead]
        dead = [s for s in pref if s in self._dead]
        return live + dead

    def _forward(
        self,
        shard: str,
        op: str,
        params: Dict,
        emit: Optional[Callable[[str, Dict], None]] = None,
        on_event: Optional[Callable] = None,
        on_batch: Optional[Callable] = None,
        timeout: Optional[float] = None,
    ) -> Dict:
        """One request to one shard; raises on transport loss."""

        try:
            client = self._client(shard)
        except ServerUnavailableError:
            self._drop_client(shard)
            raise
        stream = emit is not None or on_event is not None
        sink = on_event
        batch_sink = on_batch
        if sink is None and emit is not None:
            def sink(ev):  # noqa: E306 — local relay
                emit(ev.kind, ev.data)

            if batch_sink is None:
                # A shard's burst relays as one batch event, so the
                # client-facing transport ships it in one flush again.
                def batch_sink(evs):  # noqa: E306 — local relay
                    self.stats.bump("router.batches_relayed")
                    emit(
                        protocol.EV_BATCH,
                        {
                            "events": [
                                {"kind": ev.kind, "data": ev.data}
                                for ev in evs
                            ]
                        },
                    )
        try:
            pending = client.submit(
                op,
                stream=stream,
                on_event=sink,
                on_batch=batch_sink,
                **params,
            )
            result = pending.result(timeout or self.forward_timeout)
        except ServerUnavailableError:
            self._drop_client(shard)
            raise
        except PedRequestError as exc:
            if exc.type == "connection":
                # The shard died with this request in flight.
                self._drop_client(shard)
                raise ServerUnavailableError(exc.message) from exc
            raise
        self.stats.bump("router.forwarded")
        return result

    def _forward_routed(
        self,
        key: str,
        op: str,
        params: Dict,
        emit: Optional[Callable[[str, Dict], None]] = None,
        timeout: Optional[float] = None,
    ) -> Dict:
        """Forward along ``key``'s ring preference until a shard
        answers; bounded by ring size, counts each rehash."""

        last: Optional[Exception] = None
        for attempt, shard in enumerate(self._candidates(key)):
            if attempt:
                self.stats.bump("router.rehash")
            try:
                return self._forward(
                    shard, op, params, emit=emit, timeout=timeout
                )
            except ServerUnavailableError as exc:
                last = exc
                continue
        raise _ShardLost(
            f"no shard reachable for key {key!r}: {last}"
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def execute(
        self,
        req: Dict,
        emit: Optional[Callable[[str, Dict], None]] = None,
    ) -> Dict:
        """Run one request to a terminal reply envelope (host API)."""

        rid = req.get("id")
        op = req.get("op")
        streaming = emit if (emit is not None and req.get("stream")) else None
        try:
            if not isinstance(op, str):
                raise _BadRequest("request needs an 'op' string")
            with self.stats.timer(f"req.{op}"):
                local = getattr(
                    self,
                    f"_op_{op.replace('-', '_').replace('.', '_')}",
                    None,
                )
                if local is not None:
                    result = local(req, streaming)
                else:
                    result = self._route(req, streaming)
            return protocol.reply_ok(rid, result)
        except _BadRequest as exc:
            return protocol.reply_error(rid, protocol.BAD_REQUEST, str(exc))
        except _ShardLost as exc:
            return protocol.reply_error(rid, protocol.SHARD_LOST, str(exc))
        except PedRequestError as exc:
            # Transparent: the shard's structured error passes through.
            return protocol.reply_error(rid, exc.type, exc.message)
        except Exception as exc:  # noqa: BLE001 — must answer the client
            log.exception("router error handling %r", op)
            return protocol.reply_error(
                rid, protocol.INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    def _route(self, req: Dict, emit) -> Dict:
        """Default path: one shard, chosen by the request's key."""

        op = req["op"]
        session = req.get("session")
        key = session if isinstance(session, str) and session else op
        params = {
            k: v
            for k, v in req.items()
            if k not in ("id", "op", "stream", "seq")
        }
        timeout = params.get("timeout")
        return self._forward_routed(
            key,
            op,
            params,
            emit=emit,
            timeout=float(timeout) + 5.0 if timeout is not None else None,
        )

    # ------------------------------------------------------------------
    # local ops
    # ------------------------------------------------------------------

    def _op_ping(self, req: Dict, emit) -> Dict:
        return {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "fleet": {
                "shards": len(self.ring),
                "dead": sorted(self._dead),
            },
        }

    def _op_fleet_topology(self, req: Dict, emit) -> Dict:
        return {
            "shards": self.ring.nodes,
            "dead": sorted(self._dead),
            "replicas": self.ring.replicas,
        }

    def _op_shutdown(self, req: Dict, emit) -> Dict:
        if req.get("fleet"):
            for shard in self.ring.nodes:
                try:
                    self._forward(shard, "shutdown", {}, timeout=10.0)
                except (ServerUnavailableError, PedRequestError):
                    pass
        self.shutdown_event.set()
        return {"shutting_down": True}

    def _op_stats(self, req: Dict, emit) -> Dict:
        return self.stats.snapshot()

    def _op_metrics(self, req: Dict, emit) -> Dict:
        """Fleet-wide metrics: per-shard counters summed, router gauges
        overlaid (``server.*`` describes *this* routing tier), and the
        ratios derived again from the summed totals.

        ``memo.persisted_entries`` counts what a store holds, and shards
        sharing one cache directory report the same store: each store
        counts once, with the largest report among its shards."""

        merged: Dict[str, float] = {}
        stores: Dict[str, float] = {}
        reachable = 0
        for shard in self.ring.nodes:
            try:
                reply = self._forward(shard, "metrics", {}, timeout=30.0)
            except (ServerUnavailableError, PedRequestError, _ShardLost):
                continue
            reachable += 1
            store = reply.get("store")
            for key, value in reply["metrics"].items():
                if key == _PERSISTED and store is not None:
                    stores[store] = max(stores.get(store, 0), value)
                elif isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        merged[_PERSISTED] = merged.get(_PERSISTED, 0) + sum(stores.values())
        for key, value in self.stats.counters.items():
            merged[key] = merged.get(key, 0) + value
        merged["server.connections.open"] = self.connections.open
        merged["server.connections.peak"] = self.connections.peak
        merged["server.uptime_s"] = (
            time.monotonic() - self.started_monotonic
        )
        merged["fleet.shards"] = len(self.ring)
        merged["fleet.shards.reachable"] = reachable
        merged["fleet.shards.dead"] = len(self._dead)
        return {"metrics": derive_ratios(merged)}

    # ------------------------------------------------------------------
    # corpus fan-out
    # ------------------------------------------------------------------

    def _corpus_key(self, req: Dict, field: str = "job") -> str:
        job = req.get(field)
        if not isinstance(job, str) or not job:
            raise _BadRequest(f"corpus op needs a '{field}' id")
        return job

    def _job_shard_set(self, job: str) -> Set[str]:
        with self._jobs_lock:
            shards = self._job_shards.get(job)
        if shards is None:
            raise _BadRequest(f"no corpus job named {job!r}")
        return set(shards)

    def _op_corpus_submit(self, req: Dict, emit) -> Dict:
        programs = req.get("programs")
        if not isinstance(programs, list) or not programs:
            raise _BadRequest(
                "corpus.submit needs 'programs': a non-empty list of "
                "{'name', 'source'} objects"
            )
        by_name: Dict[str, Dict] = {}
        for item in programs:
            if not isinstance(item, dict) or not item.get("name"):
                raise _BadRequest("each corpus program must be an object "
                                  "with a 'name'")
            by_name[item["name"]] = item
        job = req.get("job")
        if not isinstance(job, str) or not job:
            with self._jobs_lock:
                self._job_ids += 1
                job = f"f{self._job_ids}"
        wait = bool(emit) or bool(req.get("wait"))
        total = len(by_name)
        progress_lock = threading.Lock()
        done_counter = {"n": 0}

        def renumber(data: Dict) -> Dict:
            # Renumber per-shard progress to fleet-wide done/total.
            # Callers hold ``progress_lock``.
            data = dict(data)
            if data.get("phase") == "corpus.program":
                done_counter["n"] += 1
                data["done"] = done_counter["n"]
                data["total"] = total
            return data

        def shard_event(ev) -> None:
            if emit is None:
                return
            with progress_lock:
                data = renumber(ev.data)
            emit(ev.kind, data)

        def shard_batch(evs) -> None:
            # A shard's burst renumbers under one lock hold and relays
            # as one batch, staying one flush on the client hop.
            if emit is None:
                return
            with progress_lock:
                records = [
                    {"kind": ev.kind, "data": renumber(ev.data)}
                    for ev in evs
                ]
            self.stats.bump("router.batches_relayed")
            emit(protocol.EV_BATCH, {"events": records})

        streaming = wait and emit is not None

        def submit_to(shard: str, names: List[str]) -> Dict:
            payload = {
                "job": job,
                "programs": [by_name[n] for n in names],
            }
            if wait:
                payload["wait"] = True
            return self._forward(
                shard,
                "corpus.submit",
                payload,
                on_event=shard_event if streaming else None,
                on_batch=shard_batch if streaming else None,
            )

        # Partition onto the ring (live shards preferred) and fan out.
        assignment: Dict[str, List[str]] = {}
        for name in by_name:
            shard = self._candidates(name)[0]
            assignment.setdefault(shard, []).append(name)

        lost: Dict[str, Dict] = {}
        merged_programs: Dict[str, str] = {}
        snapshots: List[Dict] = []
        used_shards: Set[str] = set()
        pending = [
            (shard, names, 0) for shard, names in assignment.items()
        ]
        while pending:
            futures = {
                self._fan.submit(submit_to, shard, names): (
                    shard,
                    names,
                    hop,
                )
                for shard, names, hop in pending
            }
            pending = []
            for future, (shard, names, hop) in futures.items():
                try:
                    snapshot = future.result()
                except ServerUnavailableError as exc:
                    # Rehash the whole sub-batch onto each program's
                    # next candidate; programs with nowhere to go are
                    # recorded as shard-lost, not silently dropped.
                    self.stats.bump("router.rehash")
                    regroup: Dict[str, List[str]] = {}
                    for name in names:
                        candidates = [
                            s
                            for s in self._candidates(name)
                            if s != shard
                        ]
                        if hop < len(candidates):
                            regroup.setdefault(
                                candidates[hop], []
                            ).append(name)
                        else:
                            lost[name] = {
                                "program": name,
                                "error": f"shard-lost: {exc.message}",
                                "digest": "",
                            }
                    pending.extend(
                        (s, ns, hop + 1) for s, ns in regroup.items()
                    )
                    continue
                except PedRequestError as exc:
                    raise _BadRequest(
                        f"shard {shard} rejected corpus.submit: "
                        f"{exc.message}"
                    )
                used_shards.add(shard)
                snapshots.append(snapshot)
                merged_programs.update(snapshot.get("programs") or {})
        for name in lost:
            merged_programs[name] = "error"
        with self._jobs_lock:
            self._job_shards.setdefault(job, set()).update(used_shards)
            self._lost.setdefault(job, {}).update(lost)
        done = sum(
            1 for s in merged_programs.values() if s in ("done", "error")
        )
        return {
            "job": job,
            "total": len(merged_programs),
            "done": done,
            "running": sum(
                1 for s in merged_programs.values() if s == "running"
            ),
            "errors": sum(
                1 for s in merged_programs.values() if s == "error"
            ),
            "complete": done == len(merged_programs),
            "programs": merged_programs,
            "started": not wait,
            "shards": sorted(used_shards),
            "lost": sorted(lost),
        }

    def _op_corpus_status(self, req: Dict, emit) -> Dict:
        job = self._corpus_key(req)
        with self._jobs_lock:
            lost = dict(self._lost.get(job, {}))
        merged_programs: Dict[str, str] = {}
        for shard in sorted(self._job_shard_set(job)):
            try:
                snapshot = self._forward(
                    shard, "corpus.status", {"job": job}, timeout=60.0
                )
            except ServerUnavailableError:
                continue
            merged_programs.update(snapshot.get("programs") or {})
        for name in lost:
            merged_programs[name] = "error"
        done = sum(
            1 for s in merged_programs.values() if s in ("done", "error")
        )
        return {
            "job": job,
            "total": len(merged_programs),
            "done": done,
            "running": sum(
                1 for s in merged_programs.values() if s == "running"
            ),
            "errors": sum(
                1 for s in merged_programs.values() if s == "error"
            ),
            "complete": done == len(merged_programs),
            "programs": merged_programs,
        }

    def _shard_records(self, job: str) -> List[Dict]:
        """Every shard's result records plus router-side loss records,
        in deterministic (program-name) order."""

        with self._jobs_lock:
            lost = dict(self._lost.get(job, {}))
        records: Dict[str, Dict] = {}
        for shard in sorted(self._job_shard_set(job)):
            try:
                result = self._forward(
                    shard, "corpus.results", {"job": job}, timeout=120.0
                )
            except ServerUnavailableError:
                continue
            for record in result.get("records") or []:
                records[record.get("program", "")] = record
        for name, record in lost.items():
            records.setdefault(name, record)
        return [records[name] for name in sorted(records)]

    def _op_corpus_results(self, req: Dict, emit) -> Dict:
        job = self._corpus_key(req)
        records = self._shard_records(job)
        return {"job": job, "count": len(records), "records": records}

    def _op_corpus_query(self, req: Dict, emit) -> Dict:
        """One fleet-wide rollup, computed over the union of every
        shard's records with the exact single-host aggregate code."""

        job = self._corpus_key(req)
        aggregate = req.get("aggregate")
        if not isinstance(aggregate, str) or aggregate not in AGGREGATES:
            raise _BadRequest(
                "corpus.query needs an 'aggregate' name "
                f"(one of: {', '.join(sorted(AGGREGATES))})"
            )
        records = self._shard_records(job)
        ok = [r for r in records if not r.get("error")]
        value = run_aggregate(aggregate, ok)
        done = len(records)
        return {
            "job": job,
            "aggregate": aggregate,
            "cached": False,
            "complete": True,
            "done": done,
            "total": done,
            "value": value,
        }
