"""Per-pair dependence testing: cheap tests first, Banerjee last.

Given two accesses to the same array, :class:`DependenceTester` classifies
every subscript position (ZIV/SIV/MIV/sections) and applies tests in
order of cost:

1. **ZIV** on positions without index variables — constant differences
   settle most pairs immediately;
2. **exact SIV** tests (strong / weak-zero / weak-crossing) which also
   deliver exact distances;
3. **GCD** on MIV positions;
4. **Banerjee** bounding per direction vector, also used for section-range
   overlap.

The tester records which tier disposed of the pair (`resolved_by`) and how
many individual tests ran per tier — the data behind the paper's claim
that a hierarchical suite "starting with inexpensive tests" is the right
engineering (bench M1).

The tester holds the per-pair tests and every counter; the pair walk
that feeds it lives in the driver (``_GraphBuilder._build_batched``) and
:mod:`repro.dependence.batch`.  Real procedures repeat the same
subscript pattern dozens of times (``A(I,J)`` vs ``A(I,J-1)`` at every
statement of a stencil), so the walk tests each canonical form of a
pair — the printed subscripts of both accesses, the common nest bounds
and the slice of the constant environment the subscripts can see — once
per unit, and replays the recorded verdict for every repeat, re-bumping
its tier counters, so tier statistics (bench M1) equal those of testing
every pair.  :class:`SharedPairMemo` carries verdicts across units,
keyed on that form widened by the oracle's fact digest.  The walk's
pair pruner reports structurally-impossible pairs here too (tier
``"pruned"``), keeping all per-pair accounting in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.symbolic import Linear
from ..fortran.symbols import SymbolTable, int_const
from .references import ArrayAccess
from .subscript import (
    FULL,
    NONLINEAR,
    RANGE,
    SIV,
    ZIV,
    AffineSub,
    SubscriptPair,
)
from .tests import (
    ANY,
    DEP,
    EQ,
    GT,
    INDEP,
    LT,
    LoopBound,
    MAYBE,
    Oracle,
    TestOutcome,
    banerjee_test,
    gcd_test,
    strong_siv_test,
    weak_crossing_siv_test,
    weak_zero_siv_test,
)

_TIER_ORDER = ["pruned", "ziv", "siv", "gcd", "banerjee"]


@dataclass
class VectorResult:
    """Outcome for one direction vector of a pair."""

    vector: Tuple[object, ...]  # ints (exact distance) or direction chars
    exists: bool
    proven: bool
    test: str = ""


@dataclass
class PairResult:
    """Full result of testing one access pair."""

    src: ArrayAccess
    snk: ArrayAccess
    independent: bool
    vectors: List[VectorResult] = field(default_factory=list)
    resolved_by: str = "banerjee"
    tests_run: Dict[str, int] = field(default_factory=dict)
    #: Classic element-reference pair (no call-site section dimensions).
    classic: bool = True


#: Sentinel for names whose PARAMETER value is not an integer constant —
#: such pairs opt out of cross-unit sharing (the printed subscript text
#: cannot distinguish two units binding the name differently).
_UNSHAREABLE = object()


class SharedPairMemo:
    """Program-scoped (and disk-persisted) pair-test memo.

    One instance is shared by every :class:`DependenceTester` a session
    creates, so a verdict proved in one unit replays in every other unit
    whose pair has the same *shared key* — the tester's canonical local
    key widened with the oracle digest, nest depth and PARAMETER slice
    (everything unit-local the local key left implicit).

    Every :meth:`lookup` counts one hit or one miss.  :meth:`absorb`
    merges entries proved elsewhere (a sibling process through the
    store, a peer server through gossip) without touching the counters.
    """

    #: Deterministic capacity cap — entries beyond this are computed but
    #: not stored, so long sessions stay bounded and parity stays exact.
    MAX_ENTRIES = 65536

    def __init__(self, entries: Optional[Dict[tuple, tuple]] = None) -> None:
        self.entries: Dict[tuple, tuple] = dict(entries or {})
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple) -> Optional[tuple]:
        value = self.entries.get(key)
        if value is not None:
            self.hits += 1
        else:
            self.misses += 1
        return value

    def store(self, key: tuple, value: tuple) -> None:
        if key in self.entries or len(self.entries) >= self.MAX_ENTRIES:
            return
        self.entries[key] = value

    def absorb(self, export: Dict[str, object]) -> None:
        """Merge ``export["entries"]`` up to :data:`MAX_ENTRIES`."""

        for key, value in export.get("entries", {}).items():
            if len(self.entries) >= self.MAX_ENTRIES:
                break
            self.entries.setdefault(key, value)


def _classic_pair(src: ArrayAccess, snk: ArrayAccess) -> bool:
    """Would this pair classify without RANGE/FULL positions?

    Mirrors :func:`pair_subscripts`: element references and all-point
    sections pair as ordinary subscripts; a full or true-range dimension
    (or a rank mismatch, which pads with FULL) makes the pair
    non-classic.  Used by the pruner, which never runs the classifier.
    """

    a = src.point_rank()
    return a >= 0 and a == snk.point_rank()


class DependenceTester:
    """Applies the hierarchical test suite to access pairs.

    ``oracle`` answers symbolic queries; the pair walk supplies each
    pair's loop bounds and constant environment.
    """

    def __init__(
        self,
        table: Optional[SymbolTable] = None,
        oracle: Optional[Oracle] = None,
        max_nest: int = 6,
        shared: Optional[SharedPairMemo] = None,
        profile: bool = False,
    ) -> None:
        self.table = table
        self.oracle = oracle or Oracle()
        self.max_nest = max_nest
        self.tier_counts: Dict[str, int] = {t: 0 for t in _TIER_ORDER}
        #: tier → cumulative wall seconds spent in that tier's test
        #: functions; ``None`` unless constructed with ``profile=True``
        #: (the timing calls are skipped entirely when off).
        self.tier_seconds: Optional[Dict[str, float]] = (
            {} if profile else None
        )
        self.pair_resolution: Dict[str, int] = {}
        #: Same, restricted to classic element-reference pairs (no
        #: call-site section dimensions) — the population the
        #: Goff–Kennedy–Tseng "cheap tests first" claim is about.
        self.pair_resolution_classic: Dict[str, int] = {}
        #: Pairs that repeated a canonical key already seen in this walk
        #: (hits) and pairs that reached the tier sweeps (misses).
        self.memo_hits = 0
        self.memo_misses = 0
        #: Program-scoped memo, probed once per canonical key per walk.
        self.shared = shared
        self.shared_hits = 0
        self.shared_misses = 0
        #: name → integer PARAMETER value / None / _UNSHAREABLE, cached
        #: per tester (one symbol table per tester).
        self._param_values: Dict[str, object] = {}
        #: The cross-unit part of the shared key, or None to opt out.
        #: Sharing requires an oracle whose full fact content digests to
        #: a hashable summary; ``max_nest`` joins the key because it
        #: bounds the direction-vector enumeration.
        digest = self.oracle.digest() if shared is not None else None
        self._shared_ctx = None if digest is None else (digest, max_nest)

    # -- public API ---------------------------------------------------------

    def count_pruned(self, src: ArrayAccess, snk: ArrayAccess) -> PairResult:
        """Record a pair the driver rejected before any test ran.

        Pruned pairs are provably edge-free (same-statement with no
        common loops, or disjoint constant subscripts/sections), so the
        cheapest possible "test" disposed of them; they are counted as
        their own tier in the hierarchy statistics.
        """

        classic = _classic_pair(src, snk)
        self.tier_counts["pruned"] = self.tier_counts.get("pruned", 0) + 1
        return self._finish(src, snk, True, [], "pruned", {}, classic)

    def _shared_key(
        self, key: tuple, src: ArrayAccess, snk: ArrayAccess
    ) -> Optional[tuple]:
        """Widen the local key with everything the symbol table adds.

        Subscript extraction consults the table only to resolve integer
        PARAMETER constants, so the local key plus a slice of those
        values over the pair's referenced names is a complete canonical
        form across units.  A name bound to a non-integer PARAMETER opts
        the pair out (returns None) — its printed text underdetermines
        the extraction.
        """

        ctx = self._shared_ctx
        if ctx is None:
            return None
        _, src_names = src.signature()
        _, snk_names = snk.signature()
        params = []
        for name in sorted(src_names | snk_names):
            value = self._param_value(name)
            if value is _UNSHAREABLE:
                return None
            if value is not None:
                params.append((name, value))
        return (ctx, key, tuple(params))

    def _param_value(self, name: str):
        try:
            return self._param_values[name]
        except KeyError:
            pass
        value = None
        if self.table is not None:
            expr = self.table.parameter_value(name)
            if expr is not None:
                const = int_const(expr, self.table)
                value = const if const is not None else _UNSHAREABLE
        self._param_values[name] = value
        return value

    @staticmethod
    def _memo_value(result: PairResult) -> tuple:
        return (
            result.independent,
            tuple(
                (vr.vector, vr.exists, vr.proven, vr.test)
                for vr in result.vectors
            ),
            result.resolved_by,
            tuple(sorted(result.tests_run.items())),
            result.classic,
        )

    # -- internals ---------------------------------------------------------

    def _finish(
        self, src, snk, independent, vectors, tier, tests_run, classic=True
    ) -> PairResult:
        self.pair_resolution[tier] = self.pair_resolution.get(tier, 0) + 1
        if classic:
            self.pair_resolution_classic[tier] = (
                self.pair_resolution_classic.get(tier, 0) + 1
            )
        return PairResult(src, snk, independent, vectors, tier, tests_run, classic)

    def _test_vector(
        self,
        pairs: List[SubscriptPair],
        bounds: Sequence[LoopBound],
        direction: Tuple[str, ...],
        bump,
        bound_by_var: Dict[str, LoopBound],
    ) -> Tuple[bool, bool, str, str]:
        """Decide one direction vector.

        ``bound_by_var`` must equal ``{b.var: b for b in bounds}``; the
        batch executor builds it once per pair, not once per direction.

        Returns ``(dep_exists_or_assumed, proven, highest_tier, test_name)``.
        """

        ts = self.tier_seconds
        all_exact = True
        tier_used = "ziv"
        deciding_test = ""
        for sp in pairs:
            if sp.kind == ZIV:
                continue  # already handled; cannot disprove further by dir
            if sp.kind == NONLINEAR:
                all_exact = False
                continue  # no information
            if sp.kind in (RANGE, FULL):
                if ts is None:
                    out = self._range_overlap(sp, bounds, direction)
                else:
                    t0 = perf_counter()
                    out = self._range_overlap(sp, bounds, direction)
                    ts["banerjee"] = (
                        ts.get("banerjee", 0.0) + (perf_counter() - t0)
                    )
                bump("banerjee")
                tier_used = "banerjee"
                if out.result == INDEP:
                    return (False, False, tier_used, out.test)
                all_exact = False
                continue
            if sp.kind == SIV:
                if ts is None:
                    out = self._siv_position(
                        sp, bound_by_var, direction, bounds, bump
                    )
                else:
                    t0 = perf_counter()
                    out = self._siv_position(
                        sp, bound_by_var, direction, bounds, bump
                    )
                    ts["siv"] = ts.get("siv", 0.0) + (perf_counter() - t0)
                if tier_used == "ziv":
                    tier_used = "siv"
                if out.result == INDEP:
                    return (False, False, tier_used, out.test)
                if out.result == MAYBE:
                    # Exact SIV could not decide; Banerjee refines by
                    # direction before giving up.
                    bump("banerjee")
                    tier_used = "banerjee"
                    ban = self._timed_banerjee_position(sp, bounds, direction)
                    if ban.result == INDEP:
                        return (False, False, tier_used, ban.test)
                    all_exact = False
                else:
                    if out.test.startswith("weak"):
                        # Weak tests prove a dependence exists for *some*
                        # direction; Banerjee prunes infeasible vectors.
                        # The *decision* (a dependence exists) came from
                        # the exact test, so the pair still counts as
                        # SIV-resolved in the tier statistics.
                        bump("banerjee")
                        ban = self._timed_banerjee_position(
                            sp, bounds, direction
                        )
                        if ban.result == INDEP:
                            return (False, False, tier_used, ban.test)
                    deciding_test = out.test
                    if not out.exact:
                        all_exact = False
            else:  # MIV
                bump("gcd")
                if tier_used in ("ziv", "siv"):
                    tier_used = "gcd"
                src_c, snk_c, diff = self._miv_parts(sp)
                if ts is None:
                    out = gcd_test(src_c, snk_c, diff)
                else:
                    t0 = perf_counter()
                    out = gcd_test(src_c, snk_c, diff)
                    ts["gcd"] = ts.get("gcd", 0.0) + (perf_counter() - t0)
                if out.result == INDEP:
                    return (False, False, tier_used, out.test)
                bump("banerjee")
                tier_used = "banerjee"
                if ts is None:
                    ban = banerjee_test(
                        src_c, snk_c, diff, bounds, direction, self.oracle
                    )
                else:
                    t0 = perf_counter()
                    ban = banerjee_test(
                        src_c, snk_c, diff, bounds, direction, self.oracle
                    )
                    ts["banerjee"] = (
                        ts.get("banerjee", 0.0) + (perf_counter() - t0)
                    )
                if ban.result == INDEP:
                    return (False, False, tier_used, ban.test)
                all_exact = False
        return (True, all_exact, tier_used, deciding_test or "assumed")

    def _timed_banerjee_position(
        self,
        sp: SubscriptPair,
        bounds: Sequence[LoopBound],
        direction: Tuple[str, ...],
    ) -> TestOutcome:
        ts = self.tier_seconds
        if ts is None:
            return self._banerjee_position(sp, bounds, direction)
        t0 = perf_counter()
        out = self._banerjee_position(sp, bounds, direction)
        ts["banerjee"] = ts.get("banerjee", 0.0) + (perf_counter() - t0)
        return out

    def _siv_position(
        self,
        sp: SubscriptPair,
        bound_by_var: Dict[str, LoopBound],
        direction: Tuple[str, ...],
        bounds: Sequence[LoopBound],
        bump,
    ) -> TestOutcome:
        var = sp.index_vars()[0]
        a1 = sp.src.coeffs.get(var, 0)
        a2 = sp.snk.coeffs.get(var, 0)
        diff = sp.src.rem - sp.snk.rem
        bound = bound_by_var.get(var, LoopBound(var))
        level = self._level_of(var, bounds)
        rel = direction[level] if level is not None and level < len(direction) else ANY

        bump("siv")
        if a1 == a2 and a1 != 0:
            out = strong_siv_test(a1, diff, bound, self.oracle)
            if out.result == DEP and out.distance is not None and level is not None:
                # The exact distance fixes the direction at this level:
                # distance d = i' − i, so d>0 ⇒ '<'.
                required = EQ if out.distance == 0 else (LT if out.distance > 0 else GT)
                if rel != ANY and rel != required:
                    return TestOutcome(INDEP, exact=True, test="strong-siv")
            return out
        if a1 != 0 and a2 == 0:
            return weak_zero_siv_test(a1, diff, bound, self.oracle)
        if a1 == 0 and a2 != 0:
            # ``c1`` vs ``a2·i' + c2``: the one sink iteration is
            # ``i' = (c1 − c2)/a2 = diff/a2``, which is what the test
            # solves for with ``(a2, −diff)``.
            return weak_zero_siv_test(a2, -diff, bound, self.oracle)
        if a1 == -a2 and a1 != 0:
            return weak_crossing_siv_test(a1, diff, bound, self.oracle)
        return TestOutcome(MAYBE, test="siv")

    def _banerjee_position(
        self,
        sp: SubscriptPair,
        bounds: Sequence[LoopBound],
        direction: Tuple[str, ...],
    ) -> TestOutcome:
        src_c, snk_c, diff = self._miv_parts(sp)
        return banerjee_test(src_c, snk_c, diff, bounds, direction, self.oracle)

    def _miv_parts(self, sp: SubscriptPair):
        return (sp.src.coeffs, sp.snk.coeffs, sp.src.rem - sp.snk.rem)

    def _range_overlap(
        self,
        sp: SubscriptPair,
        bounds: Sequence[LoopBound],
        direction: Tuple[str, ...],
    ) -> TestOutcome:
        """Disprove overlap of two (possibly degenerate) ranges.

        The ranges ``[slo, shi]`` and ``[tlo, thi]`` are disjoint when
        ``slo − thi > 0`` or ``tlo − shi > 0`` everywhere in the constrained
        iteration space; each difference is bounded with the Banerjee
        machinery.
        """

        if sp.kind == FULL:
            return TestOutcome(MAYBE, test="section-full")
        src_r, snk_r = sp.src_range, sp.snk_range
        assert src_r is not None and snk_r is not None

        def gap(lo_side: AffineSub, hi_side: AffineSub) -> bool:
            coeffs_lo = dict(lo_side.coeffs)
            coeffs_hi = dict(hi_side.coeffs)
            diff = lo_side.rem - hi_side.rem
            out = banerjee_test(
                coeffs_lo,
                coeffs_hi,
                diff - Linear.constant(0),
                bounds,
                direction,
                self.oracle,
            )
            # banerjee_test checks whether f can be 0; we need "f ≥ 1
            # always", i.e. min(f) > 0.  Reuse the interval directly.
            lo_v, hi_v = _banerjee_interval(
                coeffs_lo, coeffs_hi, diff, bounds, direction, self.oracle
            )
            del out
            return lo_v > 0

        if gap(src_r.lo, snk_r.hi) or gap(snk_r.lo, src_r.hi):
            return TestOutcome(INDEP, exact=False, test="section")
        return TestOutcome(MAYBE, test="section")

    def _refine_vector(
        self,
        pairs: List[SubscriptPair],
        bounds: Sequence[LoopBound],
        direction: Tuple[str, ...],
    ) -> Tuple[object, ...]:
        """Replace direction symbols with exact distances where known."""

        out: List[object] = list(direction)
        for k, bound in enumerate(bounds):
            if k >= len(out):
                break
            var = bound.var
            dist: Optional[int] = None
            consistent = True
            for sp in pairs:
                if sp.kind != SIV or sp.index_vars() != (var,):
                    continue
                a1 = sp.src.coeffs.get(var, 0)
                a2 = sp.snk.coeffs.get(var, 0)
                if a1 == a2 and a1 != 0:
                    value = (sp.src.rem - sp.snk.rem).constant_value()
                    if value is None:
                        consistent = False
                        continue
                    from fractions import Fraction

                    d = Fraction(value, a1)
                    if d.denominator != 1:
                        consistent = False
                        continue
                    if dist is None:
                        dist = int(d)
                    elif dist != int(d):
                        consistent = False
            if dist is not None and consistent:
                required = EQ if dist == 0 else (LT if dist > 0 else GT)
                if direction[k] == required:
                    out[k] = dist
        return tuple(out)

    def _level_of(self, var: str, bounds: Sequence[LoopBound]) -> Optional[int]:
        for k, b in enumerate(bounds):
            if b.var == var:
                return k
        return None


def _banerjee_interval(src_coeffs, snk_coeffs, diff, bounds, direction, oracle):
    """The raw [min, max] interval of the Banerjee bounding step."""

    from .tests import _term_bounds

    c_lo, c_hi = oracle.range_of(diff)
    lo_total, hi_total = c_lo, c_hi
    for k, bound in enumerate(bounds):
        a = src_coeffs.get(bound.var, 0)
        b = snk_coeffs.get(bound.var, 0)
        rel = direction[k] if k < len(direction) else ANY
        t_lo, t_hi = _term_bounds(a, b, bound, rel)
        lo_total += t_lo
        hi_total += t_hi
    return lo_total, hi_total
