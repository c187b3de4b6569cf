"""Reference pair walk: the parity oracle for the driver's batched walk,
and :func:`recorded_pairs`, which keeps the per-pair results
``analyze_unit`` drops.

This is the original pair-at-a-time walk: pairs in canonical order, the
prune predicate, then per pair a canonical key, the local memo, the
shared memo, and on a miss the ZIV → SIV → GCD → Banerjee cascade; a
memo hit replays the recorded verdict and its tier counters.  The
parity suites require the production walk (``_GraphBuilder.
_build_batched`` plus ``repro.dependence.batch``) to match it.  Both
call the same per-position tests (``_test_vector``, ``_siv_position``,
``pair_subscripts``), so bugs there need the golden fingerprints and
the enumeration tests instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import product
from unittest import mock

from repro.dependence.driver import _const_disjoint, _GraphBuilder
from repro.dependence.hierarchy import _TIER_ORDER, VectorResult
from repro.dependence.subscript import FULL, RANGE, ZIV, pair_subscripts
from repro.dependence.tests import EQ, GT, INDEP, LT, ziv_test


def array_pairs(by_array, input_deps):
    """Surviving ``(array, src, snk)`` pairs in canonical order."""

    for array, accs in sorted(by_array.items()):
        for i, a in enumerate(accs):
            for j in range(i, len(accs)):
                b = accs[j]
                if not a.is_write and not b.is_write and not input_deps:
                    continue
                # A single access only matters against itself when it
                # can recur across iterations (a write in a loop).
                if i == j and not (a.nest and a.is_write):
                    continue
                yield array, a, b


def prunable_pair(a, b) -> bool:
    """Edge-free without a test: one statement outside any loop, or
    disjoint literal constants at some subscript position."""

    if a.sid == b.sid and not a.nest:
        return True
    ca, cb = a.const_dims(), b.const_dims()
    return bool(ca) and bool(cb) and _const_disjoint(ca, cb)


class ReferenceTester:
    """Pair-at-a-time testing over one production tester's counters;
    ``memoize=False`` runs the full cascade on every pair."""

    def __init__(self, tester, memoize: bool) -> None:
        self.tester = tester
        self.memoize = memoize
        self.memo = {}  # canonical pair key → ``_memo_value`` tuple

    def test_pair(self, src, snk, bounds, env):
        t = self.tester
        if not self.memoize:
            return self.test_pair_uncached(src, snk, bounds, env)
        (src_shape, src_names), (snk_shape, snk_names) = (
            src.signature(),
            snk.signature(),
        )
        env_slice = tuple(
            sorted((n, env[n]) for n in src_names | snk_names if n in env)
        )
        key = (
            src_shape,
            snk_shape,
            tuple((b.var, b.lo, b.hi) for b in bounds),
            env_slice,
        )
        hit = self.memo.get(key)
        if hit is not None:
            t.memo_hits += 1
            return self.replay(src, snk, hit)
        shared_key = t._shared_key(key, src, snk)
        if shared_key is not None:
            hit = t.shared.lookup(shared_key)
            if hit is not None:
                t.shared_hits += 1
                self.memo[key] = hit
                return self.replay(src, snk, hit)
            t.shared_misses += 1
        t.memo_misses += 1
        result = self.test_pair_uncached(src, snk, bounds, env)
        self.memo[key] = value = t._memo_value(result)
        if shared_key is not None:
            t.shared.store(shared_key, value)
        return result

    def replay(self, src, snk, value):
        """Rebuild a PairResult from the memo, re-bumping every counter
        exactly as the recorded run did."""

        t = self.tester
        independent, vectors, resolved_by, tests_run, classic = value
        for tier, n in tests_run:
            t.tier_counts[tier] = t.tier_counts.get(tier, 0) + n
        vectors = [VectorResult(*v) for v in vectors]
        return t._finish(
            src, snk, independent, vectors, resolved_by, dict(tests_run),
            classic,
        )

    def test_pair_uncached(self, src, snk, bounds, env):
        t = self.tester
        nest_vars = [b.var for b in bounds]
        pairs = pair_subscripts(src, snk, nest_vars, t.table, env, t.oracle)
        tests_run = {}

        def bump(tier: str) -> None:
            tests_run[tier] = tests_run.get(tier, 0) + 1
            t.tier_counts[tier] = t.tier_counts.get(tier, 0) + 1

        classic = not any(sp.kind in (RANGE, FULL) for sp in pairs)
        # Tier 1: ZIV positions settle the pair for every direction.
        for sp in pairs:
            if sp.kind == ZIV:
                bump("ziv")
                if ziv_test(sp.src.rem - sp.snk.rem, t.oracle).result == INDEP:
                    return t._finish(
                        src, snk, True, [], "ziv", tests_run, classic
                    )
        # Tier 2+: per direction vector.
        by_var = {b.var: b for b in bounds}
        vectors = []
        highest = "ziv"
        if not bounds:
            exists, proven, highest, test = t._test_vector(
                pairs, bounds, (), bump, by_var
            )
            if exists:
                vectors.append(VectorResult((), True, proven, test))
        else:
            for direction in product(
                (LT, EQ, GT), repeat=min(len(bounds), t.max_nest)
            ):
                exists, proven, tier, test = t._test_vector(
                    pairs, bounds, direction, bump, by_var
                )
                if _TIER_ORDER.index(tier) > _TIER_ORDER.index(highest):
                    highest = tier
                if exists:
                    vector = t._refine_vector(pairs, bounds, direction)
                    vectors.append(VectorResult(vector, True, proven, test))
        return t._finish(
            src, snk, not vectors, vectors, highest, tests_run, classic
        )


@contextmanager
def reference_walk(prune: bool = True, memoize: bool = True):
    """Swap this walk in for ``_GraphBuilder._build_batched``.

    ``prune=False`` also tests the pairs the pruner would reject;
    ``memoize=False`` tests every pair afresh.  The defaults reproduce
    every observable of the production walk.
    """

    def build(builder, by_array):
        tester = ReferenceTester(builder.tester, memoize)
        results = []
        for array, a, b in array_pairs(by_array, builder.config.input_deps):
            if prune and prunable_pair(a, b):
                results.append(builder.tester.count_pruned(a, b))
                continue
            common = a.common_nest(b)
            env = builder.constants.linear_env(a.sid)
            result = tester.test_pair(a, b, builder.bounds_for(common), env)
            nest_sids = tuple(loop.sid for loop in common)
            for vr in result.vectors:
                builder._add_vector_edge(
                    array, a, b, vr.vector, vr.proven, vr.test, common,
                    nest_sids,
                )
            results.append(result)
        return results

    with mock.patch.object(_GraphBuilder, "_build_batched", build):
        yield


@contextmanager
def recorded_pairs():
    """Record the per-pair list ``_GraphBuilder.build`` returns.

    Yields ``pairs_of(ua)``: the :class:`PairResult` list, in pair
    order, of the build that made ``ua``'s dependence graph.  It keeps
    answering after the block ends.
    """

    by_graph = {}
    build = _GraphBuilder.build

    def recording(builder):
        results = build(builder)
        # The graph is held in the value, so its id stays unique.
        by_graph[id(builder.graph)] = (builder.graph, results)
        return results

    with mock.patch.object(_GraphBuilder, "build", recording):
        yield lambda ua: by_graph[id(ua.graph)][1]
