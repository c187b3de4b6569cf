"""Experiment M3 — analysis scaling with program size.

An interactive tool must stay responsive on 5600-line programs (spec77's
real size).  This bench generates structurally spec77-like programs of
increasing size and measures front-end and whole-program-analysis cost,
asserting near-linear growth (the analyses are per-procedure plus a
call-graph pass; nothing quadratic in program size should appear).

It also records what the dependence pair walk saves at each size —
the share of pairs pruned before any test, the memo hit rate, and the
per-tier wall time (``driver.PROFILE_TIERS``, the ``--profile``
timing) — to ``benchmarks/out/hotpath.json``.
"""

import json
import time

import pytest

from repro.dependence import driver
from repro.fortran import parse_and_bind
from repro.interproc import FeatureSet, analyze_program
from repro.workloads.generator import generate_program

from conftest import save_artifact


def _hotpath_totals(pa):
    totals = {"pairs_pruned": 0, "memo_hits": 0, "memo_misses": 0}
    pairs = 0
    tier_seconds = {}
    for ua in pa.units.values():
        for key, value in ua.hotpath_stats().items():
            totals[key] = totals.get(key, 0) + value
        pairs += sum(ua.tester.pair_resolution.values())
        for tier, secs in (ua.tester.tier_seconds or {}).items():
            tier_seconds[tier] = tier_seconds.get(tier, 0.0) + secs
    if tier_seconds:
        totals["tier_seconds"] = tier_seconds
    totals["pairs_total"] = pairs
    totals["prune_rate"] = totals["pairs_pruned"] / pairs if pairs else 0.0
    looked = totals["memo_hits"] + totals["memo_misses"]
    totals["memo_hit_rate"] = totals["memo_hits"] / looked if looked else 0.0
    return totals


@pytest.mark.parametrize("n_routines", [5, 20])
def test_frontend_scaling(benchmark, n_routines):
    source = generate_program(n_routines=n_routines)
    sf = benchmark(parse_and_bind, source)
    assert len(sf.units) == n_routines + 2


def test_analysis_scaling_is_near_linear(benchmark):
    sizes = [5, 10, 20, 40, 80, 160]
    results = []

    def measure():
        # Per-tier wall time rides into hotpath.json (the --profile
        # instrumentation; adds only perf_counter calls per test).
        saved_profile = driver.PROFILE_TIERS
        driver.PROFILE_TIERS = True
        try:
            return _measure_sizes()
        finally:
            driver.PROFILE_TIERS = saved_profile

    def _measure_sizes():
        out = []
        for k in sizes:
            source = generate_program(n_routines=k)
            sf = parse_and_bind(source)
            lines = len(source.splitlines())
            t0 = time.perf_counter()
            pa = analyze_program(sf, FeatureSet())
            dt = time.perf_counter() - t0
            driver_ua = pa.unit("driver")
            driver_ok = driver_ua.info_for(
                driver_ua.loops[0].loop
            ).parallelizable
            out.append(
                (
                    k,
                    lines,
                    dt,
                    pa.parallel_loop_count(),
                    pa.loop_count(),
                    driver_ok,
                    _hotpath_totals(pa),
                )
            )
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1, warmup_rounds=0)

    text_lines = ["routines  lines  seconds  parallel/total  prune%  memo%"]
    hotpath_rows = []
    for k, lines, dt, par, total, driver_ok, hp in results:
        text_lines.append(
            f"{k:>8} {lines:>6} {dt:>8.3f}  {par}/{total}"
            f"  {100.0 * hp['prune_rate']:5.1f}  {100.0 * hp['memo_hit_rate']:5.1f}"
        )
        hotpath_rows.append(dict(hp, routines=k, seconds=dt))
        # The gloop-style driver loop parallelizes at every size (sections
        # must keep working as the program grows); the in-place stencil
        # routines are genuinely serial, like their spec77 originals.
        assert driver_ok, k
        assert par >= 5
    save_artifact("scaling.txt", "\n".join(text_lines) + "\n")
    save_artifact(
        "hotpath.json", json.dumps({"sizes": hotpath_rows}, indent=2) + "\n"
    )
    # The hot path must actually fire at scale: most testable pairs
    # repeat a known pattern, and a solid slice never reaches a test.
    biggest = results[-1][-1]
    assert biggest["prune_rate"] > 0.05
    assert biggest["memo_hit_rate"] > 0.5

    # Near-linear: 8x the routines may cost at most ~16x the time
    # (allows constant overheads + mild superlinearity, rejects quadratic).
    t_small = results[0][2]
    t_large = results[-1][2]
    ratio = t_large / max(t_small, 1e-9)
    assert ratio < (sizes[-1] / sizes[0]) ** 1.6, ratio


def test_interactive_latency_on_spec77_sized_program(benchmark):
    """A ~1.5k-line program must analyze at interactive latency."""

    source = generate_program(n_routines=100, n_fields=6)
    sf = parse_and_bind(source)
    assert len(source.splitlines()) > 1000

    def analyze_once():
        return analyze_program(sf, FeatureSet())

    pa = benchmark.pedantic(analyze_once, rounds=3, iterations=1, warmup_rounds=0)
    assert pa.loop_count() > 60
