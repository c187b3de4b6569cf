"""Experiment M2 — interactive responsiveness.

Ped reanalyzes after every edit / assertion / transformation; an
interactive tool lives or dies on that latency.  This bench measures the
session-level reanalysis cost on the largest suite program (spec77) and
the incremental cost of the individual interactions a user performs:

* full (cold) reanalysis after an edit must complete at interactive
  latency — the engine caches are cleared inside the timed region so
  this really measures the from-scratch pipeline;
* a single-procedure edit must reanalyze in roughly per-unit time, far
  below the full-program cost (the incremental engine's headline claim,
  asserted here and recorded to ``benchmarks/out/incremental.json``);
* a dependence-marking interaction (no reanalysis, only verdict refresh)
  must be far cheaper still — and must perform *no* reparse at all;
* reopening a previously analyzed program with ``--cache-dir`` must
  start warm from the persistent store, far below the cold-open cost
  (``benchmarks/out/warmstart.json``);
* the shared pair-test memo and per-span warm starts must pay off
  across sessions *and* across programs: a warm-memo reopen beats the
  cold open by 1.5x or more, and a cold open of a *sibling* program
  (never seen, but sharing half its routines) gets nonzero span-reuse
  and shared-memo hit rates (``benchmarks/out/crossreuse.json``);
* the reuse must also cross *process* boundaries: after a separate
  process populates a shared ``--cache-dir``, this process's reopen
  beats its own cold open and absorbs the sibling process's memo
  deltas through the lease-coordinated singleton record
  (``benchmarks/out/multiprocess.json``).
"""

import json
import os
import tempfile
import time

import pytest

from repro.editor import CommandInterpreter, PedSession
from repro.workloads import SUITE

from conftest import save_artifact


@pytest.fixture(scope="module")
def spec77_session():
    return PedSession(SUITE["spec77"].source)


def _best_of(fn, rounds=3):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_full_reanalysis(benchmark, spec77_session):
    """Cold reanalysis: engine caches dropped inside the timed region."""

    def cold_reanalyze():
        spec77_session.engine.clear()
        spec77_session.reanalyze()

    benchmark.pedantic(cold_reanalyze, rounds=3, iterations=1, warmup_rounds=0)


def test_session_open(benchmark):
    session = benchmark.pedantic(
        PedSession,
        args=(SUITE["spec77"].source,),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    assert session.analysis.loop_count() > 20


def test_single_unit_edit_reanalysis(benchmark):
    """An edit confined to one procedure of spec77 reanalyzes at per-unit
    cost: the engine reparses exactly one unit and the latency sits well
    below a full reanalysis.  Emits machine-readable numbers for the
    paper-style responsiveness comparison."""

    session = PedSession(SUITE["spec77"].source)
    lines = session.source.splitlines()
    target = next(
        i for i, text in enumerate(lines, start=1) if "ekin = 0.5" in text
    )
    variants = [
        lines[target - 1].replace("0.5", "0.25"),
        lines[target - 1],
    ]
    state = {"flip": 0}

    def edit_one_unit():
        session.edit(target, target, variants[state["flip"]])
        state["flip"] ^= 1

    parse_misses_before = session.engine.stats.stage("parse").misses
    incremental_s = _best_of(edit_one_unit, rounds=4)
    parse_misses = session.engine.stats.stage("parse").misses - parse_misses_before
    # The first edit reparses exactly the one edited unit; toggling back
    # revisits an already-seen span, so every later edit is a pure cache
    # hit — no reparse at all.
    assert parse_misses == 1, "an edit must reparse at most the edited unit"

    def cold_reanalyze():
        session.engine.clear()
        session.reanalyze()

    full_s = _best_of(cold_reanalyze, rounds=3)
    assert incremental_s < full_s * 0.6, (
        f"single-unit edit ({incremental_s:.4f}s) is not measurably faster "
        f"than full reanalysis ({full_s:.4f}s)"
    )

    save_artifact(
        "incremental.json",
        json.dumps(
            {
                "program": "spec77",
                "units": len(session.analysis.units),
                "full_reanalysis_s": full_s,
                "single_unit_edit_s": incremental_s,
                "speedup": full_s / incremental_s,
                "engine_stats": session.engine.stats.snapshot(),
            },
            indent=2,
        )
        + "\n",
    )
    benchmark.pedantic(edit_one_unit, rounds=3, iterations=1, warmup_rounds=0)


def test_marking_interaction(benchmark):
    """Marking a dependence refreshes verdicts without reanalysis."""

    from repro.interproc import FeatureSet

    # Array kill off so the wrk dependences stay pending (markable).
    session = PedSession(
        SUITE["arc3d"].source, features=FeatureSet(array_kill=False)
    )
    session.select_unit("filtall")
    session.select_loop(0)
    deps = [d for d in session.dependences() if d.marking == "pending"]
    assert deps
    dep = deps[0]

    def mark_and_unmark():
        session.mark_dependence(dep.id, "accepted")
        session.mark_dependence(dep.id, "pending")

    parse_runs_before = session.engine.stats.stage("parse").runs
    benchmark(mark_and_unmark)
    # The acceptance bar: a marking/verdict refresh performs no reparse —
    # in fact it never enters the engine at all.
    assert session.engine.stats.stage("parse").runs == parse_runs_before


def test_assertion_interaction(benchmark):
    """An assertion triggers a reanalysis — through the engine's caches,
    with no reparse: only the asserted unit's dependence stage reruns."""

    session = PedSession(SUITE["onedim"].source)
    session.select_unit("deposit")

    def assert_and_undo():
        session.add_assertion("distinct map")
        session.undo()

    parse_misses_before = session.engine.stats.stage("parse").misses
    benchmark.pedantic(assert_and_undo, rounds=3, iterations=1, warmup_rounds=0)
    assert session.engine.stats.stage("parse").misses == parse_misses_before


def test_edit_reanalysis(benchmark):
    """An in-place source edit reparses + reanalyzes only its unit."""

    session = PedSession(SUITE["pneoss"].source)
    lines = session.source.splitlines()
    target = next(
        i for i, text in enumerate(lines, start=1) if "gam(i) = 1.4" in text
    )

    def edit_back_and_forth():
        session.edit(target, target, "         gam(i) = 1.5")
        session.edit(target, target, "         gam(i) = 1.4")

    benchmark.pedantic(
        edit_back_and_forth, rounds=3, iterations=1, warmup_rounds=0
    )


def test_warm_start_reopen(benchmark):
    """Reopening spec77 with a persistent cache starts warm: the whole
    cache state loads from one content-addressed record and the analysis
    is a pure cache walk — fingerprint-identical to cold, and far
    faster.  Emits ``benchmarks/out/warmstart.json``."""

    from repro.incremental import AnalysisEngine, program_fingerprint
    from repro.service import build_engine

    source = SUITE["spec77"].source
    cold_fp = program_fingerprint(AnalysisEngine().analyze(source)[1])

    with tempfile.TemporaryDirectory() as cache_dir:

        def cold_open():
            engine = build_engine(cache_dir=cache_dir)
            engine.analyze(source)
            return engine

        t0 = time.perf_counter()
        cold_open()  # populates the store (first ever open)
        cold_s = time.perf_counter() - t0

        warm_engines = []

        def warm_open():
            engine = build_engine(cache_dir=cache_dir)
            engine.analyze(source)
            warm_engines.append(engine)

        warm_s = _best_of(warm_open, rounds=3)
        warm = warm_engines[-1]
        _, pa = warm.analyze(source)
        assert program_fingerprint(pa) == cold_fp
        assert warm.stats.counter("disk.warm_start") >= 1
        assert warm.stats.stage("parse").misses == 0
        assert warm_s < cold_s, (
            f"warm reopen ({warm_s:.4f}s) must beat the cold open "
            f"({cold_s:.4f}s)"
        )

        save_artifact(
            "warmstart.json",
            json.dumps(
                {
                    "program": "spec77",
                    "cold_open_s": cold_s,
                    "warm_reopen_s": warm_s,
                    "speedup": cold_s / warm_s,
                    "fingerprint_identical": True,
                    "engine_stats": warm.stats.snapshot(),
                },
                indent=2,
            )
            + "\n",
        )
        benchmark.pedantic(warm_open, rounds=3, iterations=1, warmup_rounds=0)


def test_cross_program_warm_reuse(benchmark):
    """Cross-session and cross-program reuse on a 40-routine workload:

    * warm-memo reopen of the same program is >= 1.5x faster than the
      cold open that populated the store;
    * a cold open of a *sibling* program — never analyzed, but sharing
      half its routines with the base — reuses spans, unit summaries
      and shared-memo verdicts on a cold program key, with fingerprints
      identical to a from-scratch analysis.

    Emits ``benchmarks/out/crossreuse.json``.
    """

    from repro.incremental import AnalysisEngine, program_fingerprint
    from repro.service import build_engine
    from repro.workloads.generator import generate_program

    base = generate_program(n_routines=40)
    # The sibling keeps the first half of the routines byte-identical
    # (same spans, same line layout) and widens the stencil in the rest.
    marker = "(x(i+1) - x(i-1))"
    parts = base.split("      subroutine upd")
    out = [parts[0]]
    for p in parts[1:]:
        if int(p.split("(")[0]) >= 20:
            p = p.replace(marker, "(x(i+2) - x(i-2))")
        out.append(p)
    sibling = "      subroutine upd".join(out)
    assert sibling != base

    with tempfile.TemporaryDirectory() as cache_dir:

        def cold_open():
            engine = build_engine(cache_dir=cache_dir)
            engine.analyze(base)
            return engine

        t0 = time.perf_counter()
        first = cold_open()  # populates spans, summaries and the memo
        cold_s = time.perf_counter() - t0
        assert first.stats.counter("memo.persisted_entries") > 0

        warm_engines = []

        def warm_open():
            engine = build_engine(cache_dir=cache_dir)
            engine.analyze(base)
            warm_engines.append(engine)

        warm_s = _best_of(warm_open, rounds=3)
        assert warm_engines[-1].stats.counter("disk.warm_start") >= 1
        assert warm_s * 1.5 <= cold_s, (
            f"warm-memo reopen ({warm_s:.4f}s) must be >= 1.5x faster "
            f"than the cold open ({cold_s:.4f}s)"
        )

        t0 = time.perf_counter()
        second = build_engine(cache_dir=cache_dir)
        _, pa = second.analyze(sibling)
        sibling_s = time.perf_counter() - t0
        _, pa_scratch = AnalysisEngine().analyze(sibling)
        assert program_fingerprint(pa) == program_fingerprint(pa_scratch)
        counters = second.stats.counters
        # Cold program key — yet spans, summaries and memo entries warm.
        assert "disk.warm_start" not in counters
        assert counters["disk.span_warm"] > 0
        assert counters["disk.usum_hit"] > 0
        assert counters["memo.shared_hits"] > 0
        assert second.stats.shared_memo_hit_rate() > 0

        save_artifact(
            "crossreuse.json",
            json.dumps(
                {
                    "routines": 40,
                    "cold_open_s": cold_s,
                    "warm_memo_reopen_s": warm_s,
                    "warm_speedup": cold_s / warm_s,
                    "sibling_cold_key_open_s": sibling_s,
                    "sibling_span_warm": counters["disk.span_warm"],
                    "sibling_usum_hits": counters["disk.usum_hit"],
                    "sibling_shared_memo_hits": counters[
                        "memo.shared_hits"
                    ],
                    "sibling_shared_memo_hit_rate": (
                        second.stats.shared_memo_hit_rate()
                    ),
                    "fingerprint_identical": True,
                    "engine_stats": second.stats.snapshot(),
                },
                indent=2,
            )
            + "\n",
        )
        benchmark.pedantic(warm_open, rounds=3, iterations=1, warmup_rounds=0)


def test_multiprocess_warm_reopen(benchmark):
    """Cross-process warm start: another *process* populates the shared
    cache dir; this process's reopen must beat its own cold open and
    absorb the sibling's memo deltas (nonzero memo-delta hit rate).
    Emits ``benchmarks/out/multiprocess.json``."""

    import subprocess
    import sys
    from pathlib import Path

    from repro.incremental import program_fingerprint
    from repro.service import build_engine
    from repro.workloads.generator import generate_program

    n_routines = 40
    source = generate_program(n_routines=n_routines)

    with tempfile.TemporaryDirectory() as scratch:
        # Process B's cold baseline runs against a throwaway store so
        # the comparison is reopen-vs-cold within *this* process.
        t0 = time.perf_counter()
        cold = build_engine(cache_dir=str(Path(scratch) / "own"))
        _, pa_cold = cold.analyze(source)
        cold_s = time.perf_counter() - t0

        # Process A (a real subprocess) populates the shared store.
        shared = str(Path(scratch) / "shared")
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        writer = (
            "import sys\n"
            "from repro.service import build_engine\n"
            "from repro.workloads.generator import generate_program\n"
            "engine = build_engine(cache_dir=sys.argv[1])\n"
            f"engine.analyze(generate_program(n_routines={n_routines}))\n"
        )
        subprocess.run(
            [sys.executable, "-c", writer, shared],
            check=True,
            env=env,
            timeout=600,
        )

        warm_engines = []

        def warm_reopen():
            engine = build_engine(cache_dir=shared)
            engine.analyze(source)
            warm_engines.append(engine)

        warm_s = _best_of(warm_reopen, rounds=3)
        warm = warm_engines[-1]
        _, pa_warm = warm.analyze(source)
        assert program_fingerprint(pa_warm) == program_fingerprint(pa_cold)
        counters = warm.stats.counters
        # This process never populated the store, yet starts warm and
        # absorbs the sibling process's memo deltas.
        assert counters.get("disk.warm_start", 0) >= 1
        assert counters.get("memo.delta_absorbed", 0) > 0
        delta_hit_rate = counters["memo.delta_absorbed"] / max(
            counters.get("memo.persisted_entries", 0), 1
        )
        assert warm_s < cold_s, (
            f"cross-process warm reopen ({warm_s:.4f}s) must beat the "
            f"cold open ({cold_s:.4f}s)"
        )

        save_artifact(
            "multiprocess.json",
            json.dumps(
                {
                    "routines": n_routines,
                    "cold_open_s": cold_s,
                    "cross_process_warm_reopen_s": warm_s,
                    "speedup": cold_s / warm_s,
                    "memo_delta_absorbed": counters["memo.delta_absorbed"],
                    "memo_persisted_entries": counters.get(
                        "memo.persisted_entries", 0
                    ),
                    "memo_delta_hit_rate": delta_hit_rate,
                    "fingerprint_identical": True,
                },
                indent=2,
            )
            + "\n",
        )
        benchmark.pedantic(
            warm_reopen, rounds=3, iterations=1, warmup_rounds=0
        )
