"""The batched pair walk against the pair-at-a-time reference walk.

The driver's walk (``_GraphBuilder._build_batched`` plus
:mod:`repro.dependence.batch`) batches pair collection, memo lookups and
the test tiers; ``tests/dependence/reference_walk.py`` keeps the
original pair-at-a-time walk as the oracle.  For any unit both must
produce the same :class:`PairResult` stream, the same ``resolved_by``
tiers, the same M1 tier counters and the same memo hit/miss accounting,
with and without the shared program memo.

This suite generates random Fortran routines whose loop nests exercise
every tier (ZIV constants, SIV offsets, MIV couplings, symbolic bounds
that force Banerjee, section-producing call sites via the workload
suite) and asserts observable-for-observable equality, not just
fingerprint equality — a counter drift would pass a fingerprint check
but corrupt the M1 statistics the paper's tables are built from.
"""

import random
from contextlib import nullcontext
from unittest import mock

import pytest

from repro.fortran import parse_and_bind
from repro.incremental import program_fingerprint
from repro.interproc import FeatureSet, analyze_program
from repro.workloads import SUITE

from tests.dependence.reference_walk import recorded_pairs, reference_walk

#: Observables that depend on memo bookkeeping, not on results.
MEMO_KEYS = ("memo", "shared")


def observe(source: str, walk=None, share: bool = True):
    """:func:`observables` of a whole-program analysis of ``source``.

    ``walk`` is a context manager that swaps the walk (``None`` runs the
    production walk); ``share=False`` analyzes every unit without a
    shared program memo, as ``transform/fusion.py`` does.
    """

    no_share = (
        nullcontext()
        if share
        else mock.patch("repro.interproc.program.SharedPairMemo", lambda: None)
    )
    with walk or nullcontext(), no_share, recorded_pairs() as pairs_of:
        pa = analyze_program(parse_and_bind(source), FeatureSet())
    return observables(pa, pairs_of)


def observables(pa, pairs_of):
    """Every observable the pair walk could disturb, per unit;
    ``pairs_of`` is a :func:`recorded_pairs` lookup."""

    out = {"fingerprint": program_fingerprint(pa)}
    for name, ua in sorted(pa.units.items()):
        t = ua.tester
        out[name] = {
            "tier_counts": {k: v for k, v in t.tier_counts.items() if v},
            "resolved": dict(t.pair_resolution),
            "resolved_classic": dict(t.pair_resolution_classic),
            "memo": (t.memo_hits, t.memo_misses),
            "shared": (t.shared_hits, t.shared_misses),
            "pairs": [
                (
                    p.src.array,
                    p.src.sid,
                    p.snk.sid,
                    p.independent,
                    p.resolved_by,
                    p.classic,
                    tuple(sorted(p.tests_run.items())),
                    tuple(
                        (v.vector, v.exists, v.proven, v.test)
                        for v in p.vectors
                    ),
                )
                for p in pairs_of(ua)
            ],
        }
    return out


def without_memo_counters(observed):
    return {
        name: (
            {k: v for k, v in unit.items() if k not in MEMO_KEYS}
            if isinstance(unit, dict)
            else unit
        )
        for name, unit in observed.items()
    }


# ----------------------------------------------------------------------
# randomized affine-subscript programs
# ----------------------------------------------------------------------

_VARS = ("i", "j", "k")


def _subscript(rng: random.Random, depth: int) -> str:
    """One random affine subscript over the live loop variables."""

    kind = rng.randrange(10)
    if kind < 2:  # ZIV: literal constant
        return str(rng.randint(1, 9))
    var = _VARS[rng.randrange(depth)]
    if kind < 3:  # symbolic stride/offset — unknown to the env
        return f"{var}+n"
    coef = rng.choice((1, 1, 1, 2, 3))
    off = rng.randint(-3, 3)
    term = var if coef == 1 else f"{coef}*{var}"
    if kind >= 8 and depth > 1:  # MIV coupling: second loop var rides in
        other = _VARS[(rng.randrange(depth - 1) + 1) % depth]
        term = f"{term}+{other}"
    if off > 0:
        return f"{term}+{off}"
    if off < 0:
        return f"{term}{off}"
    return term


def _ref(rng: random.Random, array: str, rank: int, depth: int) -> str:
    subs = ", ".join(_subscript(rng, depth) for _ in range(rank))
    return f"{array}({subs})"


def generate_routine(seed: int) -> str:
    """A random routine: nested loops over affine array statements."""

    rng = random.Random(seed)
    depth = rng.randint(1, 3)
    arrays = [("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))]
    dims = {1: "(60)", 2: "(60,60)"}
    lines = [
        "      subroutine r(a, b, n)",
        "      integer n, i, j, k",
        "      real a{}, b{}".format(
            dims[arrays[0][1]], dims[arrays[1][1]]
        ),
    ]
    label = 10
    indent = "      "
    for d in range(depth):
        bound = rng.choice(("20", "30", "n"))
        lines.append(
            f"{indent}do {label + d} {_VARS[d]} = 1, {bound}"
        )
        indent += "   "
    n_stmts = rng.randint(2, 4)
    for _ in range(n_stmts):
        dst_arr, dst_rank = arrays[rng.randrange(len(arrays))]
        src_arr, src_rank = arrays[rng.randrange(len(arrays))]
        dst = _ref(rng, dst_arr, dst_rank, depth)
        src = _ref(rng, src_arr, src_rank, depth)
        lines.append(f"{indent}{dst} = {src} + 1.0")
    for d in reversed(range(depth)):
        indent = indent[:-3]
        lines.append(f" {label + d:<4} continue")
    lines.append("      end")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(24))
def test_randomized_parity(seed):
    source = generate_routine(seed)
    assert observe(source) == observe(source, reference_walk()), source


@pytest.mark.parametrize("memo,share", [(True, False), (False, False)])
@pytest.mark.parametrize("seed", (0, 7, 13))
def test_randomized_parity_memo_modes(seed, memo, share):
    """Without a shared memo (``shared_memo=None``) the walk still
    replays repeats itself, so its counters must match the memoized
    reference exactly, and everything but the memo counters must match
    the reference that tests every pair afresh."""

    source = generate_routine(seed)
    production = observe(source, share=share)
    reference = observe(source, reference_walk(memoize=memo), share=share)
    if memo:
        assert production == reference, source
    else:
        assert without_memo_counters(production) == without_memo_counters(
            reference
        ), source


@pytest.mark.parametrize("name", sorted(SUITE))
def test_workload_suite_parity(name):
    """The real workload programs (sections, call sites, reductions) —
    the structured cases randomized routines cannot reach."""

    source = SUITE[name].source
    assert observe(source) == observe(source, reference_walk())


def test_m1_statistics_identical_with_and_without_memo():
    """Acceptance criterion: M1 tier statistics of the production walk
    are bit-identical to those of the reference walk that tests every
    pair afresh, and to the memoized reference's."""

    from dataclasses import asdict

    from repro.evaluation.hierarchy_stats import dependence_test_stats

    def stats_for(walk=None):
        with walk or nullcontext():
            return asdict(dependence_test_stats(["spec77", "onedim"]))

    reference = stats_for(reference_walk(memoize=False))
    assert stats_for() == reference
    assert stats_for(reference_walk()) == reference
