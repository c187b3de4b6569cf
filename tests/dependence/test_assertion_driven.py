"""Tests for assertion-sharpened dependence analysis (the oracle paths)."""

import pytest

from repro.assertions import AssertionDB
from repro.dependence import AnalysisConfig, analyze_unit
from repro.fortran import parse_and_bind


def analysis_with(body, asserts=(), decls="real a(200), b(200)"):
    src = "      program t\n"
    for d in decls.splitlines():
        src += f"      {d}\n"
    for line in body.splitlines():
        src += f"      {line}\n"
    src += "      end\n"
    unit = parse_and_bind(src).units[0]
    db = AssertionDB()
    for text in asserts:
        db.add(text)
    return analyze_unit(unit, AnalysisConfig(oracle=db)), unit


def first_parallel(ua):
    return ua.info_for(ua.loops[0].loop).parallelizable


class TestZivAssert:
    def test_symbolic_offset_blocked_without_assert(self):
        ua, _ = analysis_with("do i = 1, 50\na(i + m) = a(i) + 1.0\nend do")
        assert not first_parallel(ua)

    def test_range_assert_unblocks(self):
        # m ≥ 50 puts every write at least 50 slots beyond every read;
        # with trip 50, no feasible distance remains.
        ua, _ = analysis_with(
            "do i = 1, 50\na(i + m) = a(i) + 1.0\nend do",
            asserts=["m >= 50", "m <= 150"],
        )
        assert first_parallel(ua)

    def test_insufficient_range_still_blocked(self):
        ua, _ = analysis_with(
            "do i = 1, 50\na(i + m) = a(i) + 1.0\nend do",
            asserts=["m >= 10", "m <= 20"],
        )
        assert not first_parallel(ua)


class TestConstantAssert:
    def test_value_assertion_enables_exact_test(self):
        # Stride m: with m == 2 the accesses interleave without collision.
        body = "do i = 1, 50\na(m * i) = a(m * i - 1) + 1.0\nend do"
        blocked, _ = analysis_with(body)
        assert not first_parallel(blocked)
        ua, _ = analysis_with(body, asserts=["m == 2"])
        assert first_parallel(ua)


class TestDistinctAssert:
    def test_gather_scatter(self):
        body = "do i = 1, 50\na(ip(i)) = b(i) + a(ip(i))\nend do"
        decls = "real a(200), b(200)\ninteger ip(200)"
        blocked, _ = analysis_with(body, decls=decls)
        assert not first_parallel(blocked)
        ua, _ = analysis_with(body, asserts=["distinct ip"], decls=decls)
        assert first_parallel(ua)

    def test_distinct_other_array_does_not_help(self):
        body = "do i = 1, 50\na(ip(i)) = b(i) + a(ip(i))\nend do"
        decls = "real a(200), b(200)\ninteger ip(200), jp(200)"
        ua, _ = analysis_with(body, asserts=["distinct jp"], decls=decls)
        assert not first_parallel(ua)

    def test_distinct_different_index_arrays_conservative(self):
        # a(ip(i)) vs a(jp(i)): distinctness of each says nothing about
        # their cross-collisions.
        body = "do i = 1, 50\na(ip(i)) = a(jp(i)) + 1.0\nend do"
        decls = "real a(200)\ninteger ip(200), jp(200)"
        ua, _ = analysis_with(
            body, asserts=["distinct ip", "distinct jp"], decls=decls
        )
        assert not first_parallel(ua)


class TestAssertedLoopBounds:
    def test_symbolic_trip_with_asserted_bound(self):
        # Distance-10 dependence; the loop runs at most 8 iterations by
        # assertion, so the dependence cannot be realised.
        body = "do i = 1, n\na(i + 10) = a(i) + 1.0\nend do"
        blocked, _ = analysis_with(body)
        assert not first_parallel(blocked)
        ua, _ = analysis_with(body, asserts=["n >= 1", "n <= 8"])
        assert first_parallel(ua)


class TestSharedMemoInvalidation:
    """The program-scoped shared memo keys on the oracle's fact digest,
    so a verdict proved under one unit's assertions must never replay in
    a unit holding different facts — and oracle mutation must reroute
    lookups rather than serve stale entries."""

    BODY = "do i = 1, 50\na(i + m) = a(i) + 1.0\nend do"

    def _analyze(self, shared, asserts=()):
        src = "      program t\n      real a(200), b(200)\n"
        for line in self.BODY.splitlines():
            src += f"      {line}\n"
        src += "      end\n"
        unit = parse_and_bind(src).units[0]
        db = AssertionDB()
        for text in asserts:
            db.add(text)
        config = AnalysisConfig(oracle=db, shared_memo=shared)
        return analyze_unit(unit, config)

    def test_asserted_verdict_does_not_leak_to_unasserted_unit(self):
        from repro.dependence import SharedPairMemo

        shared = SharedPairMemo()
        sharp = self._analyze(shared, asserts=["m >= 50", "m <= 150"])
        assert first_parallel(sharp)
        assert shared.entries  # the asserted unit populated the memo
        blunt = self._analyze(shared)
        # Same canonical pair, different fact space: no replay allowed.
        assert not first_parallel(blunt)
        assert blunt.tester.shared_hits == 0

    def test_unasserted_verdict_does_not_leak_to_asserted_unit(self):
        from repro.dependence import SharedPairMemo

        shared = SharedPairMemo()
        blunt = self._analyze(shared)
        assert not first_parallel(blunt)
        sharp = self._analyze(shared, asserts=["m >= 50", "m <= 150"])
        assert first_parallel(sharp)
        assert sharp.tester.shared_hits == 0

    def test_identical_fact_spaces_do_share(self):
        from repro.dependence import SharedPairMemo

        shared = SharedPairMemo()
        first = self._analyze(shared, asserts=["m >= 50", "m <= 150"])
        second = self._analyze(shared, asserts=["m >= 50", "m <= 150"])
        assert first_parallel(second)
        assert second.tester.shared_hits > 0
        assert first_parallel(second) == first_parallel(first)

    def test_oracle_mutation_reroutes_shared_lookups(self):
        from repro.dependence import SharedPairMemo

        source = (
            "      subroutine s(a, n)\n"
            "      integer n, i\n"
            "      real a(400)\n"
            "      do 10 i = 1, 100\n"
            "         a(i) = a(i+n) * 2.0\n"
            " 10   continue\n"
            "      end\n"
        )
        shared = SharedPairMemo()

        def analyze(db):
            unit = parse_and_bind(source).units[0]
            ua = analyze_unit(
                unit, AnalysisConfig(oracle=db, shared_memo=shared)
            )
            (pair,) = [
                r for r in ua.pair_results if r.src.is_write != r.snk.is_write
            ]
            return pair, ua.tester.shared_hits

        db = AssertionDB()
        before, hits = analyze(db)
        assert not before.independent
        assert hits == 0

        # The fact changes the verdict; the old shared entry now lives
        # under an unreachable digest, not in the new lookup path.
        db.add("n > 100")
        after, hits = analyze(db)
        assert after.independent
        assert hits == 0

        # A second analysis over the same mutated oracle replays the
        # *new* verdicts from the shared memo: both of the unit's pairs
        # (the write against itself and against the read).
        replayed, hits = analyze(db)
        assert replayed.independent
        assert hits == 2

        # And an analysis over an empty fact space still sees the
        # original conservative verdict, not the sharpened one.
        conservative, hits = analyze(AssertionDB())
        assert not conservative.independent
        assert hits == 2
