"""Span tracing for the Ped benchmark's traced runs.

The tracer wraps each layer's public callables where their callers look
them up (class attributes and the module globals callers import), so no
code under ``src/`` knows about it.  While an action is traced, every
wrapped call records one span in memory::

    {action_id, span_id, parent_id, layer, name, start_ns, end_ns, error}

and the spans are written out when the run ends.  A layer's self time is
its spans' durations minus the part of each span its child spans cover.

Parents.  A span opened on a thread that already has an open span nests
under it.  Server threads start with nothing open; their first span
attaches to the one client action in flight:

* a host's ``execute`` attaches to the open client call addressed to
  that host (the benchmark's client for the front end, a router's shard
  client for a shard);
* a span on a router fan-out thread attaches to the router's open
  ``execute``;
* anything else (event-loop and client reader threads) attaches to the
  most recent open client call.

A client call (``PedClient.submit``) stays open until its reply arrives,
so the time a request spends on the wire and in other threads is the
``transport`` layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

#: The layers, in report order.
LAYERS = (
    "transport",
    "fleet.router",
    "service.host",
    "service.protocol",
    "service.persist",
    "editor.session",
    "editor.transform",
    "editor.journal",
    "incremental",
    "fortran",
    "interproc",
    "dependence",
    "pipeline.corpus",
    "pipeline.aggregate",
)

#: ``run_task`` kinds and the layer whose work each one is.
TASK_LAYERS = {"parse": "fortran", "summary": "interproc", "dep": "dependence"}

_PERSIST_STORE = (
    "load_span",
    "save_span",
    "load_unit_summary",
    "save_unit_summary",
    "load_memo",
    "save_memo",
    "load_program",
    "save_program",
)
_SESSION_CALLS = (
    "edit",
    "add_assertion",
    "mark_dependence",
    "reclassify",
    "undo",
    "redo",
    "select_unit",
    "select_loop",
    "dependences",
)

#: ``(layer, "module" or "module:Class", attribute)`` for every wrapped
#: callable.  A function imported by name into other modules is listed
#: once per module that calls it.
BOUNDARIES = (
    [
        ("transport", "repro.service.client:PedClient", "request"),
        ("transport", "repro.service.client:PedClient", "stream"),
        ("transport", "repro.service.client:PedClient", "submit"),
        ("fleet.router", "repro.fleet.router:FleetRouter", "execute"),
        ("service.host", "repro.service.session_host:PedServer", "execute"),
        ("service.protocol", "repro.service.protocol", "parse_request"),
        ("service.protocol", "repro.service.protocol", "encode"),
        ("service.protocol", "repro.service.protocol:FrameEncoder", "encode"),
        (
            "service.protocol",
            "repro.service.protocol:FrameEncoder",
            "encode_multi",
        ),
        ("service.protocol", "repro.service.protocol:FrameDecoder", "feed"),
    ]
    + [
        ("service.persist", "repro.service.persist:PersistentStore", name)
        for name in _PERSIST_STORE
    ]
    + [
        ("service.persist", "repro.service.persist:JournalFile", "append"),
        ("service.persist", "repro.service.persist:JournalFile", "load"),
        ("service.persist", "repro.service.diskcache:DiskCache", "get"),
        ("service.persist", "repro.service.diskcache:DiskCache", "put"),
    ]
    + [
        ("editor.session", "repro.editor.session:PedSession", name)
        for name in _SESSION_CALLS
    ]
    + [
        ("editor.transform", "repro.editor.session:PedSession", "apply"),
        ("editor.transform", "repro.editor.session:PedSession", "diagnose"),
        ("editor.journal", "repro.editor.journal:SessionJournal", "append"),
        ("editor.journal", "repro.editor.journal", "replay_journal"),
        ("editor.journal", "repro.editor.session", "replay_journal"),
        ("editor.journal", "repro.service.session_host", "replay_journal"),
        ("editor.journal", "repro.editor.journal", "apply_record"),
        ("incremental", "repro.incremental.engine:AnalysisEngine", "analyze"),
        (None, "repro.service.pool", "run_task"),
        ("pipeline.corpus", "repro.pipeline.corpus:CorpusRunner", "run"),
        ("pipeline.corpus", "repro.pipeline.corpus", "analyze_program_result"),
        ("pipeline.aggregate", "repro.pipeline.aggregate", "run_aggregate"),
        ("pipeline.aggregate", "repro.pipeline.corpus", "run_aggregate"),
        ("pipeline.aggregate", "repro.fleet.router", "run_aggregate"),
    ]
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans for the actions run under :meth:`action`."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.actions = 0
        self._ids = itertools.count(1)
        self._action_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Open spans by id, in the order they opened.
        self._open: Dict[int, Dict] = {}
        #: Span id -> the host an open client call is addressed to.
        self._targets: Dict[int, object] = {}
        self._action: Optional[int] = None
        self._root: Optional[Dict] = None
        #: Server port -> host, and client -> the port it connected to.
        self._hosts: Dict[int, object] = {}
        self._client_ports: Dict[int, int] = {}
        self._saved: List = []
        self._connect = None

    # -- hosts and clients -------------------------------------------

    def register_host(self, port: int, host) -> None:
        """Tell the tracer which host serves ``port``."""

        self._hosts[port] = host

    def hook_connect(self) -> None:
        """Remember the port every :class:`PedClient` connects to, so a
        client call knows which host it is addressed to."""

        from repro.service.client import PedClient

        original = PedClient.__dict__["connect"].__func__
        tracer = self

        def connect(cls, host="127.0.0.1", port=0, **kwargs):
            client = original(cls, host, port, **kwargs)
            tracer._client_ports[id(client)] = port
            return client

        self._connect = (PedClient, original)
        PedClient.connect = classmethod(connect)

    def unhook_connect(self) -> None:
        if self._connect is not None:
            cls, original = self._connect
            cls.connect = classmethod(original)
            self._connect = None

    def _host_of(self, client):
        return self._hosts.get(self._client_ports.get(id(client)))

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        for layer, path, attr in BOUNDARIES:
            owner = _owner(path)
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer, attr, fn):
        tracer = self
        if attr == "stream":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer._open_span(layer, attr)
                try:
                    yield from fn(*args, **kwargs)
                except BaseException:
                    span["error"] = True
                    raise
                finally:
                    tracer._pop(span)
                    tracer._finish(span)

            return wrapper
        if attr == "submit":

            @functools.wraps(fn)
            def wrapper(client, *args, **kwargs):
                span = tracer._open_span(
                    layer, attr, target=tracer._host_of(client)
                )
                try:
                    pending = fn(client, *args, **kwargs)
                except BaseException:
                    span["error"] = True
                    tracer._pop(span)
                    tracer._finish(span)
                    raise
                tracer._pop(span)
                # The call stays open until its reply lands.
                pending._future.add_done_callback(
                    lambda f: tracer._finish(
                        span, f.cancelled() or f.exception() is not None
                    )
                )
                return pending

            return wrapper
        if attr == "execute":

            @functools.wraps(fn)
            def wrapper(host, req, *args, **kwargs):
                span = tracer._open_span(
                    layer, f"execute {req.get('op')}", host=host
                )
                reply = None
                try:
                    reply = fn(host, req, *args, **kwargs)
                    return reply
                finally:
                    span["error"] = not (reply or {}).get("ok")
                    tracer._pop(span)
                    tracer._finish(span)

            return wrapper
        if attr == "run_task":

            @functools.wraps(fn)
            def wrapper(kind, payload):
                task_layer = TASK_LAYERS.get(kind)
                if task_layer is None:
                    return fn(kind, payload)
                with tracer._span(task_layer, f"run_task {kind}"):
                    return fn(kind, payload)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._span(layer, attr):
                return fn(*args, **kwargs)

        return wrapper

    # -- spans ---------------------------------------------------------

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt(self, host) -> Optional[Dict]:
        """The parent of a span opened on a thread with nothing open."""

        with self._lock:
            candidates = list(reversed(self._open.values()))
        if host is not None:
            wanted = lambda s: self._targets.get(s["span_id"]) is host
        elif threading.current_thread().name.startswith("fleet-fan"):
            wanted = lambda s: s["layer"] == "fleet.router"
        else:
            wanted = lambda s: s["span_id"] in self._targets
        for span in candidates:
            if wanted(span):
                return span
        return self._root

    def _open_span(self, layer, name, target=None, host=None) -> Dict:
        stack = self._stack()
        parent = stack[-1] if stack else self._adopt(host)
        span = {
            "action_id": self._action,
            "span_id": next(self._ids),
            "parent_id": parent["span_id"] if parent else None,
            "layer": layer,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "error": False,
        }
        with self._lock:
            self._open[span["span_id"]] = span
            if target is not None:
                self._targets[span["span_id"]] = target
            self.spans.append(span)
        stack.append(span)
        return span

    def _pop(self, span: Dict) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _finish(self, span: Dict, error: bool = False) -> None:
        span["end_ns"] = time.perf_counter_ns()
        span["error"] = span["error"] or error
        with self._lock:
            self._open.pop(span["span_id"], None)
            self._targets.pop(span["span_id"], None)

    @contextmanager
    def _span(self, layer, name):
        span = self._open_span(layer, name)
        try:
            yield span
        except BaseException:
            span["error"] = True
            raise
        finally:
            self._pop(span)
            self._finish(span)

    @contextmanager
    def action(self, name: str):
        """Trace one benchmark action: wrap the layers, open the root
        span, and unwrap again when the action's reply is in."""

        self.install()
        self._action = next(self._action_ids)
        self.actions += 1
        self._root = None
        root = self._open_span("action", name)
        self._root = root
        try:
            yield
        finally:
            self._pop(root)
            self._finish(root)
            self._action = None
            self._root = None
            self.uninstall()

    def write(self, path) -> None:
        """Write every finished span of a traced action as JSON."""

        done = [
            s
            for s in self.spans
            if s["end_ns"] is not None and s["action_id"] is not None
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": done}, fh, separators=(",", ":"))


# -- span arithmetic ---------------------------------------------------


def _covered(intervals: Iterable, lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""

    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Dict]) -> Dict[int, int]:
    """Span id -> self time in ns: the span's duration minus the part
    of it covered by its children."""

    children: Dict[int, List] = {}
    for s in spans:
        if s["parent_id"] is not None:
            children.setdefault(s["parent_id"], []).append(
                (s["start_ns"], s["end_ns"])
            )
    return {
        s["span_id"]: (s["end_ns"] - s["start_ns"])
        - _covered(children.get(s["span_id"], ()), s["start_ns"], s["end_ns"])
        for s in spans
    }


def layer_report(spans: List[Dict], actions: int) -> Dict[str, float]:
    """Per-layer ``self_ms`` and ``calls`` per traced action, ``errors``
    in total, and ``trace.unattributed_share``: the share of the root
    (action) spans' time that no layer's span covers."""

    spans = [
        s
        for s in spans
        if s["end_ns"] is not None and s["action_id"] is not None
    ]
    own = self_times(spans)
    out: Dict[str, float] = {}
    per = max(actions, 1)
    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        out[f"{layer}.self_ms"] = sum(own[s["span_id"]] for s in mine) / per / 1e6
        out[f"{layer}.calls"] = len(mine) / per
        out[f"{layer}.errors"] = sum(1 for s in mine if s["error"])
    roots = [s for s in spans if s["parent_id"] is None]
    total = sum(s["end_ns"] - s["start_ns"] for s in roots)
    out["trace.unattributed_share"] = (
        sum(own[s["span_id"]] for s in roots) / total if total else 0.0
    )
    return out
