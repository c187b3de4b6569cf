"""Corpus batch ops over the real wire.

Server in-process on an ephemeral TCP port, real :class:`PedClient`
connections — the same rig as ``test_server.py`` — exercising
``corpus.submit`` (sync + streamed + background), ``corpus.status``,
``corpus.query`` (cached aggregates), and the typed
:class:`UnsupportedOpError` the client raises for ``unknown-op``
(including the ``graph.*`` ops protocol v8 removed).
"""

import time

import pytest

from repro.service import (
    PedClient,
    PedRequestError,
    PedServer,
    UnsupportedOpError,
)
from repro.workloads.generator import generate_program

from ..serving import served

PROGRAMS = [
    {
        "name": f"p{i}",
        "source": generate_program(
            n_routines=2, n_fields=2, grid=8, steps=2 + i
        ),
    }
    for i in range(3)
]

@pytest.fixture
def server():
    srv = PedServer(max_workers=4)
    with served(srv) as port:
        yield srv, port
    srv.close()


@pytest.fixture
def client(server):
    _, port = server
    with PedClient.connect(port=port) as c:
        yield c


def test_submit_wait_runs_whole_batch(client):
    # NB: the raw ``wait`` field must go through corpus_submit (or
    # submit()): request()'s own ``wait`` kwarg is the client timeout.
    result = client.corpus_submit(
        [(p["name"], p["source"]) for p in PROGRAMS], job="j1", wait=True
    )
    assert result["job"] == "j1"
    assert result["complete"] is True
    assert result["done"] == result["total"] == len(PROGRAMS)
    assert result["errors"] == 0


def test_streaming_submit_emits_one_event_per_program(client):
    events = []
    result = None
    for ev in client.stream(
        "corpus.submit", programs=PROGRAMS, job="j2", wait=120.0
    ):
        if ev.kind == "result":
            result = ev.data
        else:
            events.append(ev)
    assert result["complete"] is True
    progress = [
        e for e in events if e.data.get("phase") == "corpus.program"
    ]
    assert [e.data["program"] for e in progress] == [
        p["name"] for p in PROGRAMS
    ]
    assert [e.data["done"] for e in progress] == [1, 2, 3]
    # Protocol ordering: all events precede the terminal reply.
    seqs = [e.seq for e in progress]
    assert seqs == sorted(seqs)


def test_background_submit_then_status_polls_to_done(client):
    result = client.request("corpus.submit", programs=PROGRAMS, job="j3")
    assert result["started"] is True
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status = client.request("corpus.status", job="j3")
        if status["complete"]:
            break
        time.sleep(0.1)
    assert status["complete"] is True
    assert status["errors"] == 0


def test_query_aggregates_and_caching(client):
    client.corpus_submit(
        {p["name"]: p["source"] for p in PROGRAMS}, job="j4", wait=True
    )
    first = client.corpus_query("j4", "obstacles")
    again = client.corpus_query("j4", "obstacles")
    assert first["cached"] is False
    assert again["cached"] is True
    assert first["value"] == again["value"]
    assert first["complete"] is True
    summary = client.corpus_query("j4", "summary")["value"]
    assert summary["programs"] == len(PROGRAMS)
    assert summary["loops"] > 0
    tiers = client.corpus_query("j4", "tiers")["value"]
    assert sum(tiers["tiers"].values()) == tiers["pairs"]


def test_submit_on_a_two_process_pool_matches_inline(client):
    """``jobs=2`` runs the batch on the corpus process pool; its rollup
    equals the inline server's."""

    pairs = [(p["name"], p["source"]) for p in PROGRAMS]
    client.corpus_submit(pairs, job="inline", wait=True)
    inline = client.corpus_query("inline", "summary")["value"]
    srv = PedServer(jobs=2, max_workers=4)
    try:
        with served(srv) as port, PedClient.connect(port=port) as pooled:
            result = pooled.corpus_submit(pairs, job="pool", wait=True)
            assert result["complete"] is True and result["errors"] == 0
            summary = pooled.corpus_query("pool", "summary")["value"]
            metrics = pooled.request("metrics")["metrics"]
    finally:
        srv.close()
    assert metrics["pool.tasks"] == len(PROGRAMS)
    assert "pool.broken" not in metrics, "the batch fell back to inline"
    assert summary == inline
    assert summary["programs"] == len(PROGRAMS)


def test_extending_a_job_invalidates_cached_aggregates(client):
    pairs = [(p["name"], p["source"]) for p in PROGRAMS]
    client.corpus_submit(pairs[:2], job="j5", wait=True)
    assert client.corpus_query("j5", "summary")["cached"] is False
    client.corpus_submit(pairs[2:], job="j5", wait=True)
    fresh = client.corpus_query("j5", "summary")
    assert fresh["cached"] is False
    assert fresh["value"]["programs"] == len(PROGRAMS)


def test_corpus_errors_are_bad_request(client):
    with pytest.raises(PedRequestError) as err:
        client.request("corpus.status", job="nope")
    assert err.value.type == "bad-request"
    client.corpus_submit(
        [(p["name"], p["source"]) for p in PROGRAMS[:1]],
        job="j6",
        wait=True,
    )
    with pytest.raises(PedRequestError, match="unknown aggregate"):
        client.request("corpus.query", job="j6", aggregate="nope")


def test_unknown_op_raises_typed_error(client):
    for op in ("corpus.frobnicate", "graph.describe", "graph.last", "graph.plan"):
        with pytest.raises(UnsupportedOpError) as err:
            client.request(op, job="x")
        assert err.value.op == op
        assert err.value.type == "unknown-op"
        assert isinstance(err.value, PedRequestError)
