"""The shard router: transparent forwarding, fan-out merges, shard death.

Most tests run shards in-process behind :class:`AsyncTransport` (fast,
deterministic); the kill tests run a real ``python -m repro fleet
shard`` subprocess so death is a SIGKILL, not a polite drain, and one
test runs the whole fleet from the command line.
"""

import json
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.fleet import AsyncTransport, FleetRouter, HashRing
from repro.incremental.stats import EngineStats
from repro.interproc import FeatureSet
from repro.pipeline import CorpusRunner
from repro.service import PedClient, PedRequestError, PedServer
from repro.workloads.generator import generate_program

from ..serving import child_env, names_owned_by

AGG_NAMES = ("summary", "obstacles", "tiers", "transforms")


def _programs(n=8):
    return [
        (
            f"prog{i:02d}",
            generate_program(
                n_routines=2 + i % 3,
                n_fields=2,
                grid=8,
                steps=2 + i % 3,
            ),
        )
        for i in range(n)
    ]


@contextmanager
def _two_shards(cache_dir=None):
    """Two in-process shards (over one cache dir, when given) behind a
    routed front end: ``(addrs, router, router_port, servers)``."""

    shards = []
    addrs = []
    for _ in range(2):
        srv = PedServer(max_workers=4, cache_dir=cache_dir)
        transport = AsyncTransport(srv)
        port = transport.start_background()
        shards.append((srv, transport))
        addrs.append(f"127.0.0.1:{port}")
    router = FleetRouter(addrs, retries=1, backoff=0.01)
    rtransport = AsyncTransport(router)
    rport = rtransport.start_background()
    try:
        yield addrs, router, rport, [srv for srv, _ in shards]
    finally:
        rtransport.stop_background()
        router.close()
        for srv, transport in shards:
            transport.stop_background()
            srv.close()


@pytest.fixture
def fleet():
    """Two in-process shards behind a routed front end."""

    with _two_shards() as (addrs, router, rport, _):
        yield addrs, router, rport


@pytest.fixture
def rclient(fleet):
    _, _, rport = fleet
    with PedClient.connect(port=rport) as c:
        yield c


def test_ping_reports_fleet(rclient):
    reply = rclient.request("ping")
    assert reply["pong"] is True
    assert reply["fleet"] == {"shards": 2, "dead": []}


def test_topology(rclient, fleet):
    addrs, _, _ = fleet
    topo = rclient.request("fleet.topology")
    assert sorted(topo["shards"]) == sorted(addrs)
    assert topo["dead"] == []


def test_session_ops_route_transparently(rclient):
    """Open/query/edit against the router behave exactly like a direct
    server connection — including streamed event ordering."""

    source = generate_program(n_routines=4)
    events = list(
        rclient.stream("open", session="s", source=source, wait=120)
    )
    assert events[-1].kind == "result"
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert any(e.kind == "analysis.progress" for e in events)

    summary = rclient.request("parallel_summary", session="s", wait=60)
    assert sum(u["loops"] for u in summary["units"]) > 0
    assert rclient.request("close", session="s") == {"closed": "s"}


def test_unknown_op_passes_through(rclient):
    with pytest.raises(PedRequestError) as err:
        rclient.request("definitely.not.an.op", session="x")
    assert err.value.type == "unknown-op"


def test_corpus_fanout_matches_single_host(rclient, fleet):
    """The tentpole parity claim: a corpus routed across two shards
    produces byte-identical aggregates and per-program fingerprints to
    the same corpus on one host."""

    addrs, router, _ = fleet
    names = names_owned_by(router.ring, addrs[0], 4)
    names += names_owned_by(router.ring, addrs[1], 4)
    programs = [(name, src) for name, (_n, src) in zip(names, _programs(8))]
    reply = rclient.corpus_submit(programs, wait=True)
    assert reply["complete"] is True
    assert reply["total"] == 8 and reply["errors"] == 0
    assert reply["lost"] == []
    assert len(reply["shards"]) == 2, "partition should span both shards"
    job = reply["job"]

    runner = CorpusRunner(features=FeatureSet(), stats=EngineStats())
    local = runner.submit(programs)
    runner.run(local)

    for name in AGG_NAMES:
        fleet_value = rclient.corpus_query(job, name)["value"]
        local_value = runner.query(local, name)[0]
        assert json.dumps(fleet_value, sort_keys=True) == json.dumps(
            local_value, sort_keys=True
        ), name

    routed = rclient.request("corpus.results", job=job, wait=60)
    fleet_digests = {
        r["program"]: r["digest"] for r in routed["records"]
    }
    local_digests = {
        r["program"]: r["digest"] for r in local.result_records()
    }
    assert fleet_digests == local_digests


def test_corpus_status_merges(rclient):
    programs = _programs(4)
    job = rclient.corpus_submit(programs, wait=True)["job"]
    status = rclient.corpus_status(job)
    assert status["total"] == 4
    assert status["complete"] is True
    assert set(status["programs"]) == {name for name, _src in programs}


def test_streamed_corpus_renumbers_progress(rclient):
    """Per-shard progress events come back renumbered to fleet-wide
    ``done/total`` counts."""

    programs = _programs(6)
    events = list(
        rclient.stream(
            "corpus.submit",
            wait=300,
            programs=[
                {"name": name, "source": src} for name, src in programs
            ],
        )
    )
    assert events[-1].kind == "result"
    progress = [
        e.data
        for e in events
        if e.data.get("phase") == "corpus.program"
    ]
    assert len(progress) == 6
    assert [p["done"] for p in progress] == list(range(1, 7))
    assert all(p["total"] == 6 for p in progress)


def test_metrics_merge_sums_shards(rclient):
    rclient.request("open", session="m", source=generate_program(), wait=120)
    metrics = rclient.request("metrics", wait=60)["metrics"]
    assert metrics["fleet.shards"] == 2
    assert metrics["fleet.shards.reachable"] == 2
    assert metrics["fleet.shards.dead"] == 0
    assert metrics["router.forwarded"] >= 1
    assert metrics["server.connections.open"] == 1
    assert metrics["server.uptime_s"] > 0
    assert metrics["memo.entries"] > 0  # summed across shards


def test_memo_exchange_ops_are_unknown(rclient, fleet):
    """The memo crosses processes only through a shared cache dir:
    ``memo.pull`` and ``memo.push`` are unknown ops on a server and
    through a router alike."""

    addrs, _, _ = fleet
    port = int(addrs[0].rsplit(":", 1)[1])
    with PedClient.connect(port=port) as direct:
        for client in (direct, rclient):
            for op in ("memo.pull", "memo.push"):
                with pytest.raises(PedRequestError) as err:
                    client.request(op, entries=[], wait=60)
                assert err.value.type == "unknown-op"


def test_shards_sharing_a_cache_dir_warm_each_other(tmp_path):
    """A program opened on one shard warms a sibling program opened on
    the other through the memo segments in their one cache dir: the
    second shard folds the first one's entries and replays them, so it
    runs fewer pair tests than a shard without the store."""

    source = generate_program(n_routines=6)
    sibling = source.replace("(x(i+1) - x(i-1))", "(x(i+2) - x(i-2))", 1)
    assert sibling != source
    cold = PedServer(max_workers=2)
    try:
        cold.execute({"op": "open", "session": "c", "source": sibling})
        cold_misses = cold.shared_memo.misses
    finally:
        cold.close()

    with _two_shards(tmp_path / "cache") as (addrs, router, rport, servers):
        first = names_owned_by(router.ring, addrs[0], 1, prefix="a")[0]
        second = names_owned_by(router.ring, addrs[1], 1, prefix="b")[0]
        with PedClient.connect(port=rport) as client:
            client.request("open", session=first, source=source, wait=120)
            client.request("open", session=second, source=sibling, wait=120)
        warmed = servers[1].execute({"op": "metrics"})["result"]["metrics"]
        assert warmed["memo.delta_absorbed"] > 0
        assert warmed["memo.shared_hits"] > 0
        assert warmed["memo.shared_misses"] < cold_misses


# ----------------------------------------------------------------------
# real processes: the command-line fleet, shard death
# ----------------------------------------------------------------------


def _spawn(*argv):
    """A real ``python -m repro`` server on an ephemeral port; returns
    (proc, "host:port")."""

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stderr.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    assert match, f"no listening banner from {argv}: {line!r}"
    return proc, f"{match.group(1)}:{match.group(2)}"


def test_cli_fleet_corpus_matches_single_host():
    """``fleet route`` over two ``fleet shard`` processes: a corpus
    split over both shards rolls up to the same summary as one local
    :class:`CorpusRunner`."""

    shard_a, addr_a = _spawn("fleet", "shard")
    shard_b, addr_b = _spawn("fleet", "shard")
    router, raddr = _spawn(
        "fleet", "route", "--port", "0", "--shard", addr_a,
        "--shard", addr_b,
    )
    try:
        # The router's ring over the same addresses places names alike.
        ring = HashRing([addr_a, addr_b])
        names = names_owned_by(ring, addr_a, 3)
        names += names_owned_by(ring, addr_b, 3)
        programs = [
            (name, src) for name, (_n, src) in zip(names, _programs(6))
        ]
        port = int(raddr.rsplit(":", 1)[1])
        with PedClient.connect(port=port, retries=3) as client:
            assert client.request("ping", wait=30)["fleet"]["shards"] == 2
            reply = client.corpus_submit(programs, wait=True)
            assert reply["complete"] is True and reply["errors"] == 0
            assert sorted(reply["shards"]) == sorted([addr_a, addr_b])
            routed = client.corpus_query(reply["job"], "summary")["value"]

        runner = CorpusRunner(features=FeatureSet(), stats=EngineStats())
        local = runner.submit(programs)
        runner.run(local)
        assert json.dumps(routed, sort_keys=True) == json.dumps(
            runner.query(local, "summary")[0], sort_keys=True
        )
    finally:
        for proc in (router, shard_a, shard_b):
            proc.terminate()
            proc.wait(timeout=20)
            proc.stderr.close()


def test_dead_shard_rehashes_to_survivor():
    """Kill one of two shards: session and corpus work lands on the
    survivor (bounded retry + rehash), the reply completes with zero
    losses, and the dead shard is reported in ping."""

    doomed_proc, doomed = _spawn("fleet", "shard")
    live_proc, live = _spawn("fleet", "shard")
    router = FleetRouter([doomed, live], retries=1, backoff=0.01)
    try:
        transport = AsyncTransport(router)
        rport = transport.start_background()
        with PedClient.connect(port=rport) as client:
            assert client.request("ping")["fleet"]["dead"] == []
            doomed_proc.send_signal(signal.SIGKILL)
            doomed_proc.wait(timeout=10)

            programs = _programs(6)
            reply = client.corpus_submit(programs, wait=True)
            assert reply["complete"] is True
            assert reply["lost"] == []
            assert reply["errors"] == 0
            assert reply["shards"] == [live]

            # Sessions rehash too: whatever shard a key hashes to, the
            # open lands on the survivor.
            opened = client.request(
                "open", session="anywhere", source=generate_program(), wait=120
            )
            assert opened["session"] == "anywhere"
            assert client.request("ping")["fleet"]["dead"] == [doomed]
    finally:
        transport.stop_background()
        router.close()
        for proc in (doomed_proc, live_proc):
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


def test_killed_idle_shard_rehashes_at_once():
    """SIGKILL a shard whose cached client sits idle: the next request
    keyed to it fails fast on the dead connection and rehashes onto
    the survivor instead of waiting out the forward timeout."""

    doomed_proc, doomed = _spawn("fleet", "shard")
    live_proc, live = _spawn("fleet", "shard")
    router = FleetRouter([doomed, live], retries=0, backoff=0.01)
    try:
        transport = AsyncTransport(router)
        rport = transport.start_background()
        keys = names_owned_by(router.ring, doomed, 2)
        with PedClient.connect(port=rport) as client:
            source = generate_program()
            client.request("open", session=keys[0], source=source, wait=120)
            reader = router._clients[doomed]._reader
            doomed_proc.send_signal(signal.SIGKILL)
            doomed_proc.wait(timeout=10)
            reader.join(timeout=10)
            assert not reader.is_alive()

            start = time.monotonic()
            opened = client.request(
                "open", session=keys[1], source=source, wait=120
            )
            assert opened["session"] == keys[1]
            metrics = client.request("metrics", wait=60)["metrics"]
            assert time.monotonic() - start < 10.0
            assert metrics["router.rehash"] >= 1
            assert client.request("ping")["fleet"]["dead"] == [doomed]
    finally:
        transport.stop_background()
        router.close()
        for proc in (doomed_proc, live_proc):
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


def test_kill_mid_corpus_retries_in_flight_programs():
    """SIGKILL a shard while its sub-batch is streaming results: the
    router rehashes the in-flight programs onto the survivor and the
    batch still completes — losses only if no candidate remains."""

    doomed_proc, doomed = _spawn("fleet", "shard")
    live_proc, live = _spawn("fleet", "shard")
    router = FleetRouter([doomed, live], retries=0, backoff=0.01)
    try:
        transport = AsyncTransport(router)
        rport = transport.start_background()
        # The doomed shard owns 9 of the 12 programs, so whichever
        # progress event comes first it still has work in flight.
        names = names_owned_by(router.ring, doomed, 9)
        names += names_owned_by(router.ring, live, 3)
        programs = [
            (name, src) for name, (_n, src) in zip(names, _programs(12))
        ]
        killed = threading.Event()

        with PedClient.connect(port=rport) as client:
            def on_event(ev):
                # First streamed progress: both sub-batches are in
                # flight — kill one shard under them.
                if not killed.is_set():
                    killed.set()
                    doomed_proc.send_signal(signal.SIGKILL)

            pending = client.submit(
                "corpus.submit",
                stream=True,
                on_event=on_event,
                programs=[
                    {"name": name, "source": src}
                    for name, src in programs
                ],
            )
            reply = pending.result(300)
            assert killed.is_set()
            assert reply["complete"] is True
            assert reply["total"] == 12
            assert reply["lost"] == []
            assert set(reply["programs"]) == {n for n, _s in programs}
            assert all(
                s in ("done", "error") for s in reply["programs"].values()
            )
            metrics = client.request("metrics", wait=60)["metrics"]
            assert metrics["router.rehash"] >= 1
    finally:
        transport.stop_background()
        router.close()
        for proc in (doomed_proc, live_proc):
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


def test_all_shards_dead_yields_lost_records():
    """With nowhere left to rehash, the submit still completes — every
    program becomes an explicit shard-lost error record."""

    proc, addr = _spawn("fleet", "shard")
    router = FleetRouter([addr], retries=0, backoff=0.01)
    try:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        reply = router.execute(
            {
                "id": 1,
                "op": "corpus.submit",
                "wait": True,
                "programs": [
                    {"name": name, "source": src}
                    for name, src in _programs(3)
                ],
            }
        )
        assert reply["ok"] is True
        result = reply["result"]
        assert result["complete"] is True
        assert sorted(result["lost"]) == ["prog00", "prog01", "prog02"]
        assert result["errors"] == 3

        results = router.execute(
            {"id": 2, "op": "corpus.results", "job": result["job"]}
        )["result"]
        assert results["count"] == 3
        assert all(
            r["error"].startswith("shard-lost") for r in results["records"]
        )

        # A routed session op with every shard dead: structured
        # shard-lost error, not a hang or a crash.
        failed = router.execute(
            {"id": 3, "op": "open", "session": "s", "source": "      end\n"}
        )
        assert failed["ok"] is False
        assert failed["error"]["type"] == "shard-lost"
    finally:
        router.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
