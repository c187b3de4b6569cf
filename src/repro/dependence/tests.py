"""The hierarchical suite of dependence tests.

"A hierarchical suite of tests is used, starting with inexpensive tests,
to prove or disprove that a dependence exists" (Goff–Kennedy–Tseng,
*Practical dependence testing*).  This module implements the individual
tests; :mod:`repro.dependence.hierarchy` sequences them.

Each test examines one subscript position of an access pair under a
direction-vector constraint and returns a :class:`TestOutcome`:

* ``INDEP``  — dependence disproved (for this position ⇒ for the pair);
* ``DEP``    — dependence proved by an exact test, possibly with a known
  distance at the tested level;
* ``MAYBE``  — the test cannot decide; the pair stays *pending* unless a
  later (more expensive) test or a user assertion resolves it.

Symbolic terms are carried as :class:`Linear` remainders; an optional
*oracle* (the assertion engine) answers sign/range queries about symbolic
differences, which is how user assertions sharpen the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.symbolic import Linear

DEP = "dep"
INDEP = "indep"
MAYBE = "maybe"

#: Direction symbols.  '<' means the source iteration precedes the sink
#: iteration at that level, '=' equal, '>' follows, '*' unconstrained.
LT, EQ, GT, ANY = "<", "=", ">", "*"

INF = math.inf
NEG_INF = -math.inf


@dataclass
class TestOutcome:
    """Result of one dependence test at one subscript position."""

    result: str  # DEP | INDEP | MAYBE
    distance: Optional[int] = None  # iteration distance when exactly known
    exact: bool = False  # produced by an exact test
    test: str = ""  # which test decided (for the pane and the benches)


class Oracle:
    """Interface for symbolic fact queries (backed by user assertions).

    ``nonzero(lin)``: can ``lin`` be proved ≠ 0 for all runtime values?
    ``range_of(lin)``: best known inclusive integer bounds (may be ±inf).
    """

    def nonzero(self, lin: Linear) -> bool:
        return False

    def range_of(self, lin: Linear) -> Tuple[float, float]:
        if lin.is_constant:
            value = float(lin.const)
            return (value, value)
        return (NEG_INF, INF)

    def injective(self, name: str) -> bool:
        """Was array ``name`` asserted to hold pairwise-distinct values?"""

        return False

    def digest(self) -> Optional[tuple]:
        """Hashable summary of every fact this oracle can contribute.

        Two oracles with equal digests must answer every ``nonzero`` /
        ``range_of`` / ``injective`` query identically — that is the
        contract the program-scoped shared pair memo keys on, so that
        verdicts proved in one unit (or session) can be replayed in
        another.  ``None`` opts out of sharing entirely; the base class
        returns a digest only for exact :class:`Oracle` instances, since
        an unknown subclass may answer queries we cannot summarize.
        """

        if type(self) is Oracle:
            return ("oracle",)
        return None


_DEFAULT_ORACLE = Oracle()


@dataclass
class LoopBound:
    """Known integer bounds of one loop's index variable (or ±inf)."""

    var: str
    lo: float = NEG_INF
    hi: float = INF

    @property
    def trip(self) -> float:
        if self.lo == NEG_INF or self.hi == INF:
            return INF
        return max(0.0, self.hi - self.lo + 1)


# ---------------------------------------------------------------------------
# ZIV
# ---------------------------------------------------------------------------


def ziv_test(diff: Linear, oracle: Optional[Oracle] = None) -> TestOutcome:
    """Zero-index-variable test on ``diff = src_sub − snk_sub``.

    Constant nonzero difference ⇒ independent; zero ⇒ the references
    always collide (dependence with distance 0 in every common loop).
    Symbolic differences consult the oracle.
    """

    oracle = oracle or _DEFAULT_ORACLE
    value = diff.constant_value()
    if value is not None:
        if value != 0:
            return TestOutcome(INDEP, exact=True, test="ziv")
        return TestOutcome(DEP, distance=0, exact=True, test="ziv")
    if oracle.nonzero(diff):
        return TestOutcome(INDEP, exact=True, test="ziv-assert")
    lo, hi = oracle.range_of(diff)
    if lo > 0 or hi < 0:
        return TestOutcome(INDEP, exact=True, test="ziv-assert")
    return TestOutcome(MAYBE, test="ziv")


# ---------------------------------------------------------------------------
# SIV family
# ---------------------------------------------------------------------------


def strong_siv_test(
    a: int,
    diff: Linear,
    bound: LoopBound,
    oracle: Optional[Oracle] = None,
) -> TestOutcome:
    """Strong SIV: ``a·i + c1`` vs ``a·i' + c2`` with equal coefficient.

    The dependence equation gives the *distance* ``d = i' − i =
    (c1 − c2)/a`` where ``diff = c1 − c2``.  Non-integer distance ⇒
    independent; integer distance beyond the trip count ⇒ independent;
    otherwise a proven dependence with exactly that distance.
    """

    oracle = oracle or _DEFAULT_ORACLE
    value = diff.constant_value()
    if value is None:
        if oracle.nonzero(diff):
            # Nonzero symbolic difference: distance unknown but never 0 —
            # still a possible dependence at some distance, so MAYBE unless
            # the range excludes multiples of a within the trip count.
            lo, hi = oracle.range_of(diff)
            if _range_excludes_feasible_distance(lo, hi, a, bound):
                return TestOutcome(INDEP, exact=True, test="strong-siv-assert")
            return TestOutcome(MAYBE, test="strong-siv")
        lo, hi = oracle.range_of(diff)
        if _range_excludes_feasible_distance(lo, hi, a, bound):
            return TestOutcome(INDEP, exact=True, test="strong-siv-assert")
        return TestOutcome(MAYBE, test="strong-siv")
    d = Fraction(value, a)
    if d.denominator != 1:
        return TestOutcome(INDEP, exact=True, test="strong-siv")
    dist = int(d)
    if bound.trip is not INF and abs(dist) >= bound.trip:
        return TestOutcome(INDEP, exact=True, test="strong-siv")
    return TestOutcome(DEP, distance=dist, exact=True, test="strong-siv")


def _range_excludes_feasible_distance(
    lo: float, hi: float, a: int, bound: LoopBound
) -> bool:
    """True when every integer in [lo, hi] maps to an infeasible distance."""

    if lo == NEG_INF or hi == INF:
        return False
    trip = bound.trip
    if trip is INF:
        # Distances of any magnitude are feasible; only an empty multiple-
        # free interval disproves. Check that no multiple of a lies within.
        first = math.ceil(lo / a) * a
        return not (lo <= first <= hi)
    for value in range(math.ceil(lo), math.floor(hi) + 1):
        if value % a == 0 and abs(value // a) < trip:
            return False
    return True


def weak_zero_siv_test(
    a: int,
    diff: Linear,
    bound: LoopBound,
    oracle: Optional[Oracle] = None,
) -> TestOutcome:
    """Weak-zero SIV: ``a·i + c1`` vs ``c2`` (sink coefficient zero).

    Solves ``i = (c2 − c1)/a = −diff/a``; dependence exists only when that
    single iteration is integral and within the loop bounds.
    """

    oracle = oracle or _DEFAULT_ORACLE
    value = diff.constant_value()
    if value is None:
        if oracle.nonzero(diff):
            return TestOutcome(MAYBE, test="weak-zero-siv")
        return TestOutcome(MAYBE, test="weak-zero-siv")
    i = Fraction(-value, a)
    if i.denominator != 1:
        return TestOutcome(INDEP, exact=True, test="weak-zero-siv")
    iv = int(i)
    if bound.lo != NEG_INF and iv < bound.lo:
        return TestOutcome(INDEP, exact=True, test="weak-zero-siv")
    if bound.hi != INF and iv > bound.hi:
        return TestOutcome(INDEP, exact=True, test="weak-zero-siv")
    return TestOutcome(DEP, exact=True, test="weak-zero-siv")


def weak_crossing_siv_test(
    a: int,
    diff: Linear,
    bound: LoopBound,
    oracle: Optional[Oracle] = None,
) -> TestOutcome:
    """Weak-crossing SIV: ``a·i + c1`` vs ``−a·i' + c2``.

    Dependences cross at ``i + i' = (c2 − c1)/a``; a dependence exists only
    when that sum is integral and within ``[2·lo, 2·hi]``.
    """

    oracle = oracle or _DEFAULT_ORACLE
    value = diff.constant_value()
    if value is None:
        return TestOutcome(MAYBE, test="weak-crossing-siv")
    total = Fraction(-value, a)
    if total.denominator != 1:
        return TestOutcome(INDEP, exact=True, test="weak-crossing-siv")
    tv = int(total)
    if bound.lo != NEG_INF and tv < 2 * bound.lo:
        return TestOutcome(INDEP, exact=True, test="weak-crossing-siv")
    if bound.hi != INF and tv > 2 * bound.hi:
        return TestOutcome(INDEP, exact=True, test="weak-crossing-siv")
    return TestOutcome(DEP, exact=True, test="weak-crossing-siv")


# ---------------------------------------------------------------------------
# MIV tests
# ---------------------------------------------------------------------------


def gcd_test(
    src_coeffs: Dict[str, int],
    snk_coeffs: Dict[str, int],
    diff: Linear,
) -> TestOutcome:
    """GCD test: a solution of ``Σaᵢ·i − Σbⱼ·i' = c2 − c1`` requires
    gcd(all coefficients) to divide the constant difference."""

    value = diff.constant_value()
    if value is None or value.denominator != 1:
        return TestOutcome(MAYBE, test="gcd")
    coeffs = [abs(c) for c in src_coeffs.values() if c] + [
        abs(c) for c in snk_coeffs.values() if c
    ]
    if not coeffs:
        return TestOutcome(MAYBE, test="gcd")
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if g and int(value) % g != 0:
        return TestOutcome(INDEP, exact=True, test="gcd")
    return TestOutcome(MAYBE, test="gcd")


def banerjee_test(
    src_coeffs: Dict[str, int],
    snk_coeffs: Dict[str, int],
    diff: Linear,
    bounds: Sequence[LoopBound],
    direction: Sequence[str],
    oracle: Optional[Oracle] = None,
) -> TestOutcome:
    """Banerjee inequality under a direction vector.

    Bounds ``f = Σ aₖ·iₖ − Σ bₖ·i'ₖ + (c1 − c2)`` over the iteration space
    restricted by ``direction``; if 0 lies outside [min, max] the
    dependence is disproved for that direction.  Symbolic constant parts
    widen the interval using the oracle's range.
    """

    oracle = oracle or _DEFAULT_ORACLE
    c_lo, c_hi = oracle.range_of(diff)
    lo_total = c_lo
    hi_total = c_hi
    for k, bound in enumerate(bounds):
        a = src_coeffs.get(bound.var, 0)
        b = snk_coeffs.get(bound.var, 0)
        rel = direction[k] if k < len(direction) else ANY
        t_lo, t_hi = _term_bounds(a, b, bound, rel)
        lo_total += t_lo
        hi_total += t_hi
        if math.isnan(lo_total) or math.isnan(hi_total):
            return TestOutcome(MAYBE, test="banerjee")
    if lo_total > 0 or hi_total < 0:
        return TestOutcome(INDEP, exact=False, test="banerjee")
    return TestOutcome(MAYBE, test="banerjee")


def _term_bounds(a: int, b: int, bound: LoopBound, rel: str) -> Tuple[float, float]:
    """Bounds of ``a·i − b·i'`` for ``i, i' ∈ [L, U]`` with ``i rel i'``."""

    L, U = bound.lo, bound.hi
    if a == 0 and b == 0:
        return (0.0, 0.0)
    if rel == EQ:
        return _linear_bounds(a - b, L, U)
    if rel == ANY:
        lo1, hi1 = _linear_bounds(a, L, U)
        lo2, hi2 = _linear_bounds(-b, L, U)
        return (lo1 + lo2, hi1 + hi2)
    # i < i'  ⇔  i' = i + d with d ≥ 1 (and i ≤ U − 1).
    if rel == LT:
        return _shifted_bounds(a, b, L, U)
    # i > i'  ⇔  i = i' + d, d ≥ 1: symmetric with roles swapped & negated.
    lo, hi = _shifted_bounds(b, a, L, U)
    return (-hi, -lo)


def _linear_bounds(c: int, L: float, U: float) -> Tuple[float, float]:
    if c == 0:
        return (0.0, 0.0)
    lo = c * L if c > 0 else c * U
    hi = c * U if c > 0 else c * L
    # inf * 0 never occurs (c != 0); inf propagates correctly.
    return (lo, hi)


def _shifted_bounds(a: int, b: int, L: float, U: float) -> Tuple[float, float]:
    """Bounds of ``a·i − b·i'`` with ``i' = i + d``, ``d ∈ [1, U − i]``,
    ``i ∈ [L, U − 1]``: evaluates the linear form on the triangle's corners.
    """

    if L == NEG_INF or U == INF:
        # Unbounded region: only the d-coefficient structure can help.
        # f = (a − b)·i − b·d.  With unbounded i the form is unbounded
        # unless a == b; then f = −b·d with d ∈ [1, ∞).
        if a == b:
            if b == 0:
                return (0.0, 0.0)
            if b > 0:
                return (NEG_INF, -b)  # d ≥ 1 ⇒ f ≤ −b
            return (-b, INF)
        return (NEG_INF, INF)
    if U - 1 < L:
        # No feasible (i, i') with i < i': empty region disproves the
        # direction entirely; signal with an empty interval.
        return (INF, NEG_INF)
    corners = [
        (L, 1),
        (U - 1, 1),
        (L, U - L),
    ]
    values = [a * i - b * (i + d) for (i, d) in corners]
    return (min(values), max(values))
