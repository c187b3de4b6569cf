"""Client wire modes across the fleet: client <-> router <-> shards.

The router always asks its shards for deflate, so the shard hops are
deflated whatever the client speaks.  A JSON client and a deflate
client must agree byte for byte on what they see: programs, fleet-wide
done counts, totals and aggregates (the deflate client also exercises
the router relaying a shard's burst as one batch event), and the deflate
client receives fewer bytes.
"""

import threading

import pytest

from repro.fleet import AsyncTransport, FleetRouter
from repro.service import PedClient, PedServer

from ..serving import names_owned_by

SIMPLE = (
    "      program p\n"
    "      real a(10)\n"
    "      do 10 i = 1, 10\n"
    "         a(i) = i\n"
    " 10   continue\n"
    "      end\n"
)


def _programs(ring):
    """Three programs owned by each of the two shards: with every name
    on one shard, only one shard client (one deflate negotiation) would
    ever exist."""

    names = [
        name for shard in ring.nodes for name in names_owned_by(ring, shard, 3)
    ]
    return [{"name": name, "source": SIMPLE} for name in names]


def _build():
    shards, addrs = [], []
    for _ in range(2):
        srv = PedServer(max_workers=2)
        transport = AsyncTransport(srv)
        port = transport.start_background()
        shards.append((srv, transport))
        addrs.append(f"127.0.0.1:{port}")
    router = FleetRouter(addrs, retries=1, backoff=0.01)
    rtransport = AsyncTransport(router)
    rport = rtransport.start_background()
    return shards, router, rtransport, rport


def _teardown(shards, router, rtransport):
    rtransport.stop_background()
    router.close()
    for srv, transport in shards:
        transport.stop_background()
        srv.close()


def _submit(rport: int, programs, client_mode: str, job: str) -> dict:
    """One streamed corpus submit and its summary, as the client sees
    them."""

    events = []
    lock = threading.Lock()

    def on_event(ev):
        with lock:
            events.append(
                (ev.data.get("program"), ev.data.get("done"),
                 ev.data.get("total"))
            )

    with PedClient.connect(port=rport) as client:
        if client_mode == "deflate":
            assert client.negotiate_compression() is True
        handle = client.submit(
            "corpus.submit", programs=programs, job=job, wait=True,
            stream=True, on_event=on_event,
        )
        reply = handle.result(120)
        value = client.request(
            "corpus.query", job=job, aggregate="summary", wait=60
        )["value"]
    progress = [e for e in events if e[0]]
    return {
        "reply": {k: reply[k]
                  for k in ("total", "done", "errors", "complete")},
        "value": value,
        "programs": sorted(p for p, _, _ in progress),
        "dones": sorted(d for _, d, _ in progress),
        "totals": sorted({t for _, _, t in progress}),
        "bytes_received": client.bytes_received,
    }


def _run(*client_modes: str):
    """Each client mode's submit, in turn, on one fresh fleet."""

    shards, router, rtransport, rport = _build()
    programs = _programs(router.ring)
    try:
        results = [
            _submit(rport, programs, mode, job=f"j-{mode}")
            for mode in client_modes
        ]
        return results, programs, dict(router.stats.counters)
    finally:
        _teardown(shards, router, rtransport)


@pytest.mark.parametrize("client_mode", ["json", "deflate"])
def test_mixed_peer_fleet_parity(client_mode):
    (result,), programs, counters = _run(client_mode)
    assert result["reply"] == {
        "total": 6, "done": 6, "errors": 0, "complete": True,
    }
    # Fleet-wide renumbering survives both client modes: each program
    # reported once, done counts 1..6, totals fleet-wide.
    assert result["programs"] == sorted(p["name"] for p in programs)
    assert result["dones"] == [1, 2, 3, 4, 5, 6]
    assert result["totals"] == [6]
    assert counters.get("router.wire_deflate", 0) == 2


def test_all_modes_agree_on_aggregates():
    """A JSON client and a deflate client on one fleet see identical
    programs, done counts, totals, replies and aggregates; the deflate
    client receives fewer bytes (about 3x fewer here)."""

    (json_run, deflate_run), _, counters = _run("json", "deflate")
    json_bytes = json_run.pop("bytes_received")
    deflate_bytes = deflate_run.pop("bytes_received")
    assert deflate_run == json_run
    assert deflate_bytes < json_bytes
    assert counters.get("router.wire_deflate", 0) == 2
