"""Tests of the Ped benchmark harness itself: ``pytest benchmarks/ped -q``."""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from metrics import TailTooThin, measure, percentile  # noqa: E402
from trace import LAYERS, layer_report, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CRASH_ROUTINES,
    EDIT_ROUTINES,
    PLANS,
    QUERIES,
    WORKLOADS,
    corpus_batches,
)
from repro.workloads.suite import SUITE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_refuses_a_thin_tail():
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(TailTooThin):
        percentile(list(range(99)), 90)
    with pytest.raises(TailTooThin):
        percentile([], 50)
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def _span(sid, parent, layer, start, end, action=1):
    return {
        "action_id": action,
        "span_id": sid,
        "parent_id": parent,
        "layer": layer,
        "name": layer,
        "start_ns": start * 1_000_000,
        "end_ns": end * 1_000_000,
        "error": False,
    }


def test_self_time_is_duration_minus_the_union_of_children():
    spans = [
        _span(1, None, "action", 0, 100),
        _span(2, 1, "transport", 10, 90),
        _span(3, 2, "service.host", 20, 50),
        _span(4, 2, "service.host", 40, 70),  # overlaps its sibling
        _span(5, 2, "service.protocol", 80, 95),  # outlives its parent
    ]
    own = self_times(spans)
    assert {k: v // 1_000_000 for k, v in own.items()} == {
        1: 20,
        2: 20,
        3: 30,
        4: 30,
        5: 15,
    }
    report = layer_report(spans, actions=2)
    assert report["transport.self_ms"] == pytest.approx(10)
    assert report["service.host.self_ms"] == pytest.approx(30)
    assert report["service.host.calls"] == 1
    assert report["trace.unattributed_share"] == pytest.approx(0.2)
    assert set(report) == {
        f"{layer}.{m}" for layer in LAYERS for m in ("self_ms", "calls", "errors")
    } | {"trace.unattributed_share"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload):
    names = {m["name"] for m in SPEC["end_to_end"]}
    run, values = measure(workload, seed=3, seconds=60, actions=10,
                          min_beyond=0)
    assert run.failed == 0, run.problems
    assert set(values) == names
    assert all(v > 0 for v in values.values()), values


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_run_attributes_the_time(workload, tmp_path):
    names = {m["name"] for m in SPEC["per_layer"]}
    run, values = measure(workload, seed=3, seconds=60, trace=True,
                          actions=10, out_dir=tmp_path)
    assert run.failed == 0, run.problems
    assert set(values) == names
    assert values["trace.unattributed_share"] <= 0.10
    spans = json.loads((tmp_path / f"trace_{workload}.json").read_text())
    assert spans["spans"] and all(
        s["end_ns"] >= s["start_ns"] for s in spans["spans"]
    )


def _take(workload, seed, n=60):
    return list(itertools.islice(PLANS[workload](seed), n))


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_the_seed_changes_the_inputs_and_nothing_else(workload):
    first = _take(workload, 1)
    assert first == _take(workload, 1)
    second = _take(workload, 2)
    assert first != second
    for steps in (first, second):
        if workload == "paper_sessions":
            for i in range(0, len(steps), len(SUITE)):
                assert sorted(p for p, _ in steps[i : i + len(SUITE)]) == sorted(
                    SUITE
                )
        elif workload == "edit_loop":
            for i in range(0, len(steps), 10):
                assert [s[0] for s in steps[i : i + 10]].count("edit") == 5
            for step in steps:
                if step[0] == "edit":
                    assert 0 <= step[1] < EDIT_ROUTINES
                elif step[0] == "query":
                    assert step[1] in QUERIES
        elif workload == "crash_restore":
            for edits in steps:
                assert len(edits) == 4
                assert all(0 <= r < CRASH_ROUTINES for r, _, _ in edits)
        else:
            for i in range(0, len(steps), len(SUITE)):
                cycle = steps[i : i + len(SUITE)]
                assert sorted(name for _, name in cycle) == sorted(SUITE)
                assert sorted(g for g, _ in cycle) == sorted(corpus_batches())
