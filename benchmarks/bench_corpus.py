"""Experiment M5 — corpus-scale batch analysis.

The paper's tables summarize obstacle and transformation frequencies
over a whole benchmark suite; the corpus ops reproduce that workflow at
fleet scale.  This bench drives a 40-program synthetic corpus through
``corpus.submit`` on the real wire, counts the per-program
``corpus.program`` progress events, queries all four aggregate nodes,
and records the rollups to ``benchmarks/out/corpus.json``.  The
qualitative shape asserted before timing: one progress event per
program in submission order, tier counts that sum to the pair total,
and a cached re-query.  The timed section is a 3-program smoke batch —
submit through aggregate query — so CI tracks the end-to-end op cost
without paying for the full fleet every round.
"""

import json
import time

import pytest

from repro.fleet import AsyncTransport
from repro.service import PedClient, PedServer
from repro.workloads.generator import generate_program

from conftest import save_artifact

FLEET_SIZE = 40


def corpus(n):
    """``n`` small distinct programs — the fleet the paper tables sum."""

    return [
        {
            "name": f"fleet{i:02d}",
            "source": generate_program(
                n_routines=2 + i % 3,
                n_fields=2 + i % 2,
                grid=8 + 4 * (i % 3),
                steps=2 + i % 4,
            ),
        }
        for i in range(n)
    ]


@pytest.fixture
def served_client():
    srv = PedServer(max_workers=4)
    transport = AsyncTransport(srv)
    client = PedClient.connect(port=transport.start_background())
    yield client
    client.close()
    transport.stop_background()
    srv.close()


def test_fleet_rollups_over_40_programs(served_client):
    programs = corpus(FLEET_SIZE)
    progress = []
    result = None
    t0 = time.perf_counter()
    for ev in served_client.stream(
        "corpus.submit", programs=programs, job="fleet", wait=600.0
    ):
        if ev.kind == "result":
            result = ev.data
        elif ev.data.get("phase") == "corpus.program":
            progress.append(ev.data)
    batch_s = time.perf_counter() - t0

    assert result["complete"] is True
    assert result["done"] == result["total"] == FLEET_SIZE
    assert result["errors"] == 0
    # One progress event per program, in submission order.
    assert [p["program"] for p in progress] == [
        p["name"] for p in programs
    ]
    assert [p["done"] for p in progress] == list(
        range(1, FLEET_SIZE + 1)
    )

    rollups = {
        name: served_client.corpus_query("fleet", name)
        for name in ("summary", "obstacles", "tiers", "transforms")
    }
    summary = rollups["summary"]["value"]
    assert summary["programs"] == FLEET_SIZE
    assert summary["loops"] > 0
    tiers = rollups["tiers"]["value"]
    assert sum(tiers["tiers"].values()) == tiers["pairs"]
    obstacles = rollups["obstacles"]["value"]
    if obstacles["ranked"]:
        assert obstacles["top"] == obstacles["ranked"][0]["obstacle"]
    # Second query of a cached aggregate never recomputes.
    assert served_client.corpus_query("fleet", "summary")["cached"] is True

    save_artifact(
        "corpus.json",
        json.dumps(
            {
                "programs": FLEET_SIZE,
                "batch_s": batch_s,
                "progress_events": len(progress),
                "aggregates": {
                    name: q["value"] for name, q in rollups.items()
                },
            },
            indent=2,
        )
        + "\n",
    )


def test_corpus_smoke_submit_to_query(benchmark, served_client):
    programs = corpus(3)
    state = {"n": 0}

    def timed_batch():
        job = f"smoke{state['n']}"
        state["n"] += 1
        result = served_client.corpus_submit(
            [(p["name"], p["source"]) for p in programs],
            job=job,
            wait=True,
            timeout=300.0,
        )
        summary = served_client.corpus_query(job, "summary")["value"]
        return result, summary

    result, summary = timed_batch()
    assert result["complete"] is True
    assert result["errors"] == 0
    assert summary["programs"] == len(programs)
    assert summary["loops"] > 0

    benchmark.pedantic(timed_batch, rounds=3, iterations=1, warmup_rounds=0)
