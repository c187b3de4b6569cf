"""Experiment M6 — fleet serving: connection scale and routed parity.

Two claims the fleet subsystem makes, measured:

1. *Connection scale* — the asyncio transport sustains 500 concurrent
   client connections on one event loop (a thread per client would top
   out far earlier), answering request
   sweeps across all of them with the connection gauge confirming the
   high-water mark.
2. *Routed parity* — a corpus partitioned across a 2-shard fleet by the
   consistent-hash router produces aggregate rollups and per-program
   fingerprints byte-identical to the same corpus on a single host.

Both record into ``benchmarks/out/fleet.json``.
"""

import json
import socket
import time

import pytest

from repro.fleet import AsyncTransport, FleetRouter
from repro.incremental.stats import EngineStats
from repro.interproc import FeatureSet
from repro.pipeline import CorpusRunner
from repro.service import PedClient, PedServer
from repro.workloads.generator import generate_program

from conftest import OUT_DIR, names_owned_by, save_artifact

N_CONNECTIONS = 500
SWEEPS = 3
N_PROGRAMS = 12

AGG_NAMES = ("summary", "obstacles", "tiers", "transforms")


def _merge_artifact(section: str, payload: dict) -> None:
    """Accumulate both tests' sections into one ``fleet.json``."""

    out = {}
    path = OUT_DIR / "fleet.json"
    if path.exists():
        try:
            out = json.loads(path.read_text())
        except ValueError:
            out = {}
    out[section] = payload
    save_artifact("fleet.json", json.dumps(out, indent=2) + "\n")


def test_500_concurrent_connections_sustained(benchmark):
    srv = PedServer(max_workers=8)
    transport = AsyncTransport(srv)
    port = transport.start_background()
    conns = []
    try:
        for _ in range(N_CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            conns.append((sock, sock.makefile("r", encoding="utf-8")))
        # The gauge ticks as each connection's loop task starts; give
        # the event loop a moment to catch up with the accept burst.
        deadline = time.monotonic() + 30
        while (
            srv.connections.open < N_CONNECTIONS
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert srv.connections.open == N_CONNECTIONS

        def sweep() -> float:
            """One ping across every connection: all pipelined out,
            then every reply read back."""

            t0 = time.perf_counter()
            for i, (sock, _fh) in enumerate(conns):
                sock.sendall(
                    (json.dumps({"id": i, "op": "ping"}) + "\n").encode()
                )
            for i, (_sock, fh) in enumerate(conns):
                reply = json.loads(fh.readline())
                assert reply["ok"] is True and reply["result"]["pong"]
            return time.perf_counter() - t0

        # Sustained: several full sweeps with every connection open.
        sweep_s = [sweep() for _ in range(SWEEPS)]
        assert srv.connections.open == N_CONNECTIONS
        assert srv.connections.peak >= N_CONNECTIONS

        _merge_artifact(
            "connections",
            {
                "concurrent_connections": N_CONNECTIONS,
                "sweeps": SWEEPS,
                "sweep_seconds": sweep_s,
                "pings_per_second": N_CONNECTIONS / min(sweep_s),
                "peak_gauge": srv.connections.peak,
            },
        )
        benchmark.pedantic(sweep, rounds=3, iterations=1, warmup_rounds=0)
    finally:
        for sock, fh in conns:
            try:
                fh.close()
                sock.close()
            except OSError:
                pass
        transport.stop_background()
        srv.close()


def test_routed_corpus_matches_single_host(benchmark):
    # The fleet starts first: the ring hashes its shards' ephemeral
    # ports, so the program names are picked to split over both shards.
    shards, addrs = [], []
    for _ in range(2):
        shard = PedServer(max_workers=4)
        shard_transport = AsyncTransport(shard)
        addrs.append(f"127.0.0.1:{shard_transport.start_background()}")
        shards.append((shard, shard_transport))
    router = FleetRouter(addrs, retries=1)
    rtransport = AsyncTransport(router)
    rport = rtransport.start_background()
    try:
        half = N_PROGRAMS // 2
        names = names_owned_by(router.ring, addrs[0], half, "bench")
        names += names_owned_by(
            router.ring, addrs[1], N_PROGRAMS - half, "bench"
        )
        programs = [
            (
                name,
                generate_program(
                    n_routines=2 + i % 4,
                    n_fields=2,
                    grid=8 + 4 * (i % 2),
                    steps=2 + i % 3,
                ),
            )
            for i, name in enumerate(names)
        ]

        # Single-host reference run.
        runner = CorpusRunner(features=FeatureSet(), stats=EngineStats())
        t0 = time.perf_counter()
        local = runner.submit(programs)
        runner.run(local)
        single_host_s = time.perf_counter() - t0
        local_aggs = {
            name: runner.query(local, name)[0] for name in AGG_NAMES
        }
        local_digests = {
            r["program"]: r["digest"] for r in local.result_records()
        }

        # The same corpus through the 2-shard routed fleet.
        with PedClient.connect(port=rport) as client:
            t0 = time.perf_counter()
            reply = client.corpus_submit(programs, wait=True)
            fleet_s = time.perf_counter() - t0
            assert reply["complete"] and reply["errors"] == 0
            assert len(reply["shards"]) == 2
            job = reply["job"]

            fleet_aggs = {
                name: client.corpus_query(job, name)["value"]
                for name in AGG_NAMES
            }
            records = client.request(
                "corpus.results", job=job, wait=120
            )["records"]
            fleet_digests = {r["program"]: r["digest"] for r in records}

            for name in AGG_NAMES:
                assert json.dumps(
                    fleet_aggs[name], sort_keys=True
                ) == json.dumps(local_aggs[name], sort_keys=True), name
            assert fleet_digests == local_digests

            _merge_artifact(
                "routed_corpus",
                {
                    "programs": N_PROGRAMS,
                    "shards": 2,
                    "single_host_seconds": single_host_s,
                    "fleet_seconds": fleet_s,
                    "aggregates_identical": True,
                    "fingerprints_identical": True,
                    "summary": fleet_aggs["summary"],
                    "fingerprints": fleet_digests,
                },
            )

            def routed_query():
                return client.corpus_query(job, "summary")["value"]

            benchmark.pedantic(
                routed_query, rounds=5, iterations=1, warmup_rounds=1
            )
    finally:
        rtransport.stop_background()
        router.close()
        for shard, shard_transport in shards:
            shard_transport.stop_background()
            shard.close()
