"""Experiment W2 — bytes on the wire, JSON lines against deflate.

Protocol v9 claims an interactive session costs a fraction of its
JSON-lines bytes once a connection negotiates deflate: each direction
becomes one raw-deflate stream of the same JSON lines, its history kept
for the life of the connection, so repeated pane rows and progress
records cost a few bytes each.  This bench measures exactly that:

* an 8-edit streamed editing session against one server, run over JSON
  lines and over deflate, and
* a corpus submit fanned over a 2-shard fleet behind a router, with a
  JSON client and with a deflate client (the shard hops always deflate).

Each run records bytes received/sent (the client's own wire counters),
event throughput, and the session fingerprint.  The qualitative shape
asserted before timing: both modes yield the *identical* event sequence
and fingerprint (the encoding is invisible except for cost), and the
deflated session ships at least 2.69x fewer bytes than JSON lines.

A third session drives the pane queries (``loops``, ``deps``,
``source``) after each of 8 edits, over JSON lines and over deflate,
and records its bytes in the ``pane`` section.

``benchmarks/out/wire.json`` gets the numbers;
``wire.bytes_ratio`` (``bytes_ratio_json_over_deflate``) and
``wire.pane_bytes_ratio_json_over_deflate`` are gated in
``benchmarks/baselines.json``.
"""

import json
import time

import pytest

from repro.fleet import AsyncTransport, FleetRouter
from repro.service import PedClient, PedServer
from repro.workloads.generator import generate_program

from conftest import OUT_DIR, save_artifact

MODES = ("json", "deflate")
EDITS = 8
#: Line 9 of the generated program seeds ``f0`` — editing its additive
#: constant dirties the main program unit without changing the parse
#: shape, so every edit re-analyzes and streams progress.
EDIT_LINE = 9
EDIT_TEXT = "            f0(i, j) = 0.01 * i + 0.1 * j + {k}.0"


def _merge_artifact(payload: dict) -> None:
    """Update ``wire.json`` with ``payload``'s keys, keeping the rest."""

    out = {}
    path = OUT_DIR / "wire.json"
    if path.exists():
        try:
            out = json.loads(path.read_text())
        except ValueError:
            out = {}
    out.update(payload)
    save_artifact("wire.json", json.dumps(out, indent=2, default=str) + "\n")


def _negotiate(client: PedClient, mode: str) -> None:
    if mode == "deflate":
        assert client.negotiate_compression(), "server must speak v9"


def _event_key(ev) -> tuple:
    return (ev.kind, json.dumps(ev.data, sort_keys=True))


def _streamed_session(mode: str) -> dict:
    """One fresh server + one client session: open, then 8 edits."""

    source = generate_program(n_routines=8)
    srv = PedServer(max_workers=4)
    transport = AsyncTransport(srv)
    port = transport.start_background()
    try:
        with PedClient.connect(port=port) as client:
            _negotiate(client, mode)
            events = []
            t0 = time.perf_counter()
            for ev in client.stream(
                "open", session="w", source=source, wait=300
            ):
                if ev.kind != "result":
                    events.append(_event_key(ev))
            for k in range(EDITS):
                for ev in client.stream(
                    "edit",
                    session="w",
                    start=EDIT_LINE,
                    end=EDIT_LINE,
                    text=EDIT_TEXT.format(k=k),
                    wait=300,
                ):
                    if ev.kind != "result":
                        events.append(_event_key(ev))
            seconds = time.perf_counter() - t0
            fingerprint = client.request("fingerprint", session="w")
            return {
                "mode": mode,
                "bytes_received": client.bytes_received,
                "bytes_sent": client.bytes_sent,
                "events": events,
                "events_per_s": len(events) / seconds if seconds else 0.0,
                "seconds": seconds,
                "fingerprint": fingerprint,
            }
    finally:
        transport.stop_background()
        srv.close()


def _fleet_submit(mode: str) -> dict:
    """Corpus submit over a 2-shard fleet, the client hop at ``mode``."""

    programs = [
        {"name": f"p{i}", "source": generate_program(n_routines=2 + i % 3)}
        for i in range(6)
    ]
    shards = []
    addrs = []
    for _ in range(2):
        srv = PedServer(max_workers=2)
        t = AsyncTransport(srv)
        port = t.start_background()
        shards.append((srv, t))
        addrs.append(f"127.0.0.1:{port}")
    router = FleetRouter(addrs, retries=1, backoff=0.01)
    rtransport = AsyncTransport(router)
    rport = rtransport.start_background()
    try:
        with PedClient.connect(port=rport) as client:
            _negotiate(client, mode)
            progress = []
            t0 = time.perf_counter()
            handle = client.submit(
                "corpus.submit",
                programs=programs,
                job="w",
                wait=True,
                stream=True,
                on_event=lambda ev: progress.append(
                    (ev.data.get("program"), ev.data.get("total"))
                ),
            )
            reply = handle.result(300)
            seconds = time.perf_counter() - t0
            value = client.request(
                "corpus.query", job="w", aggregate="summary", wait=60
            )["value"]
            return {
                "mode": mode,
                "bytes_received": client.bytes_received,
                "bytes_sent": client.bytes_sent,
                "events_per_s": len(progress) / seconds if seconds else 0.0,
                "seconds": seconds,
                "programs": sorted(p for p, _ in progress if p),
                "totals": sorted({t for _, t in progress if t}),
                "complete": reply["complete"],
                "value": value,
            }
    finally:
        rtransport.stop_background()
        router.close()
        for srv, t in shards:
            t.stop_background()
            srv.close()


def test_wire_bytes_across_protocol_levels(benchmark):
    session = {mode: _streamed_session(mode) for mode in MODES}

    # Invisibility first: identical event sequences and fingerprints.
    assert session["deflate"]["events"] == session["json"]["events"], (
        "deflate changed the client-visible event sequence"
    )
    assert (
        session["deflate"]["fingerprint"] == session["json"]["fingerprint"]
    ), "deflate changed the session fingerprint"
    assert len(session["json"]["events"]) >= EDITS, (
        "the edit stream must push progress events"
    )

    ratio = (
        session["json"]["bytes_received"]
        / session["deflate"]["bytes_received"]
    )
    assert ratio >= 2.69, (
        f"deflate must ship >=2.69x fewer bytes than JSON lines, "
        f"got {ratio:.2f}x"
    )

    fleet = {mode: _fleet_submit(mode) for mode in MODES}
    assert fleet["deflate"]["programs"] == fleet["json"]["programs"]
    assert fleet["deflate"]["totals"] == fleet["json"]["totals"] == [6]
    assert fleet["deflate"]["value"] == fleet["json"]["value"], (
        "deflate changed the fleet aggregate"
    )
    assert fleet["deflate"]["complete"]
    fleet_ratio = (
        fleet["json"]["bytes_received"] / fleet["deflate"]["bytes_received"]
    )
    assert fleet_ratio > 1.0, (
        f"a deflated fleet hop must not cost more bytes than JSON, "
        f"got {fleet_ratio:.2f}x"
    )

    strip = lambda r: {k: v for k, v in r.items() if k != "events"}  # noqa: E731
    _merge_artifact(
        {
            "edits": EDITS,
            "session": {m: strip(session[m]) for m in MODES},
            "fleet": fleet,
            "bytes_ratio_json_over_deflate": ratio,
            "fleet_bytes_ratio_json_over_deflate": fleet_ratio,
        }
    )
    benchmark.pedantic(
        lambda: _streamed_session("deflate"),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )


PANE_SOURCE = """      subroutine p(a, n)
      integer n, i
      real a(100)
      do 10 i = 1, n
         a(i) = a(i) + 1.0
 10   continue
      end
"""


def test_pane_session_bytes(benchmark):
    """A pane-query edit session over deflate moves at least 1.79x fewer
    bytes than the identical session over JSON lines."""

    srv = PedServer(max_workers=2)
    transport = AsyncTransport(srv)
    port = transport.start_background()

    def run_session(mode: str):
        with PedClient.connect(port=port) as c:
            _negotiate(c, mode)
            sid = f"wire-{mode}"
            c.request("open", session=sid, source=PANE_SOURCE)
            for i in range(EDITS):
                c.request(
                    "edit", session=sid, start=4, end=4,
                    text=f"         a(i) = a(i) + {i}.0",
                )
                c.request("loops", session=sid, unit="p")
                c.request("deps", session=sid, unit="p")
                c.request("source", session=sid)
            return c.bytes_received, c.bytes_sent

    try:
        json_in, json_out = run_session("json")
        deflate_in, deflate_out = benchmark.pedantic(
            run_session, args=("deflate",),
            rounds=1, iterations=1, warmup_rounds=0,
        )
    finally:
        transport.stop_background()
        srv.close()

    ratio = json_in / max(deflate_in, 1)
    assert ratio >= 1.79, (deflate_in, json_in)
    _merge_artifact(
        {
            "pane": {
                "session": "open + 8x(edit, loops, deps, source)",
                "json_bytes_received": json_in,
                "json_bytes_sent": json_out,
                "deflate_bytes_received": deflate_in,
                "deflate_bytes_sent": deflate_out,
                "bytes_ratio_json_over_deflate": ratio,
            }
        }
    )
