"""Batched execution of the dependence-test hierarchy.

Real units hand the driver thousands of pairs per build, most of which
collapse onto a handful of canonical keys (a stencil repeats ``A(I,J)``
vs ``A(I,J-1)`` at every statement), so per-pair fixed costs
(re-deriving loop bounds and the constant environment, rebuilding key
tuples, re-probing the shared memo) would dominate the actual testing.
The driver's pair walk (:meth:`_GraphBuilder._build_batched`) is
therefore built around the whole batch:

1. **Columnar collection** — one pass derives canonical keys against
   per-nest bound vectors and per-statement environment slices computed
   once per batch, interning every key component so keys compare by id.
2. **One memo consultation per key** — the same pass resolves every
   pair against the in-batch plan map and the shared memo.  Only the
   *first* occurrence of a key probes the shared memo; later
   occurrences are local hits.  Each first occurrence that the shared
   memo does not answer becomes a :class:`BatchPair`.
3. **Tier sweeps** — :func:`run_uncached` (this module) runs the test
   hierarchy tier-by-tier over all surviving uniques: classification
   over the whole batch, then the ZIV tier, then the direction
   enumeration grouped by nest depth so one direction sequence drives
   every group member with ``bound_by_var`` hoisted out of the loop.
4. **Replay emission** — duplicates re-bump the recorded counters with
   their multiplicity, sharing one reconstructed vectors list per
   distinct verdict.

Every miss bumps tiers through one ``bump`` closure and every replay
reproduces the recorded counters, so M1 tier statistics, memo hit/miss
accounting and the :class:`PairResult` stream equal those of testing
each pair in order.  ``tests/dependence/reference_walk.py`` keeps that
pair-at-a-time walk as the oracle the parity suites
(``tests/perf/test_batch_parity.py``, ``test_hotpath_parity.py``)
compare against.
"""

from __future__ import annotations

from itertools import product
from time import perf_counter
from typing import Dict, List, Optional

from .hierarchy import (
    _TIER_ORDER,
    DependenceTester,
    PairResult,
    VectorResult,
)
from .subscript import FULL, RANGE, ZIV, pair_subscripts
from .tests import EQ, GT, INDEP, LT, ziv_test

_ZIV_INDEX = _TIER_ORDER.index("ziv")


class BatchPair:
    """One canonical key's single computation within a batch.

    Carries the pair context (source, sink, bounds, nest variables,
    constant environment) of the key's first occurrence — any occurrence
    would do, since equal keys put identical inputs in front of the
    tester — plus the working state of the tier sweeps.
    """

    __slots__ = (
        "src",
        "snk",
        "bounds",
        "nest_vars",
        "env",
        "shared_key",
        "pairs",
        "classic",
        "tests_run",
        "bump",
        "vectors",
        "highest",
        "result",
        "value",
        "emitted",
    )

    def __init__(self, src, snk, bounds, nest_vars, env, shared_key) -> None:
        self.src = src
        self.snk = snk
        self.bounds = bounds
        self.nest_vars = nest_vars
        self.env = env
        self.shared_key = shared_key
        self.result: Optional[PairResult] = None
        self.value: Optional[tuple] = None
        self.emitted = False


def run_uncached(tester: DependenceTester, uniques: List[BatchPair]) -> None:
    """The test hierarchy, tier-by-tier over a batch of memo misses.

    Fills each unique's ``result`` (a :class:`PairResult` for its first
    occurrence) and ``value`` (the replayable memo form).  Equivalent —
    in results *and* in every counter the tester keeps — to testing the
    uniques one at a time in order.
    """

    if not uniques:
        return
    ts = tester.tier_seconds
    tier_counts = tester.tier_counts

    # Sweep 1: classification — every unique's subscript positions.
    table = tester.table
    oracle = tester.oracle
    for u in uniques:
        u.pairs = pair_subscripts(
            u.src, u.snk, u.nest_vars, table, u.env, oracle
        )
        u.classic = not any(sp.kind in (RANGE, FULL) for sp in u.pairs)
        tests_run: Dict[str, int] = {}
        u.tests_run = tests_run

        def bump(
            tier: str, tests_run=tests_run, tier_counts=tier_counts
        ) -> None:
            tests_run[tier] = tests_run.get(tier, 0) + 1
            tier_counts[tier] = tier_counts.get(tier, 0) + 1

        u.bump = bump

    # Sweep 2: the ZIV tier settles pairs for every direction at once.
    alive: List[BatchPair] = []
    for u in uniques:
        settled = False
        for sp in u.pairs:
            if sp.kind != ZIV:
                continue
            u.bump("ziv")
            if ts is None:
                out = ziv_test(sp.src.rem - sp.snk.rem, oracle)
            else:
                t0 = perf_counter()
                out = ziv_test(sp.src.rem - sp.snk.rem, oracle)
                ts["ziv"] = ts.get("ziv", 0.0) + (perf_counter() - t0)
            if out.result == INDEP:
                u.result = tester._finish(
                    u.src, u.snk, True, [], "ziv", u.tests_run, u.classic
                )
                u.value = tester._memo_value(u.result)
                settled = True
                break
        if not settled:
            alive.append(u)

    # Sweep 3: direction enumeration, grouped by nest depth so every
    # group member shares one direction sequence and a hoisted
    # var → bound map.  Depth 0 enumerates the one empty direction.
    groups: Dict[int, List[BatchPair]] = {}
    for u in alive:
        groups.setdefault(len(u.bounds), []).append(u)
    for m, group in groups.items():
        maps = []
        for u in group:
            u.vectors = []
            u.highest = _ZIV_INDEX
            maps.append({b.var: b for b in u.bounds})
        for direction in product(
            (LT, EQ, GT), repeat=min(m, tester.max_nest)
        ):
            for u, bound_by_var in zip(group, maps):
                exists, proven, tier, test = tester._test_vector(
                    u.pairs, u.bounds, direction, u.bump, bound_by_var
                )
                ti = _TIER_ORDER.index(tier)
                if ti > u.highest:
                    u.highest = ti
                if exists:
                    vector = tester._refine_vector(
                        u.pairs, u.bounds, direction
                    )
                    u.vectors.append(
                        VectorResult(vector, True, proven, test)
                    )

    for u in alive:
        u.result = tester._finish(
            u.src,
            u.snk,
            not u.vectors,
            u.vectors,
            _TIER_ORDER[u.highest],
            u.tests_run,
            u.classic,
        )
        u.value = tester._memo_value(u.result)
