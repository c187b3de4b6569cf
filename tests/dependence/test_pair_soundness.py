"""Pair-level soundness of the dependence tests, checked by enumeration.

For random routines with constant loop bounds, every iteration of the
nest is enumerated and each access's subscripts are evaluated, giving
the exact set of element collisions between the two accesses of a pair.
Then, for every pair that involves a write:

* a pair reported independent has no conflicting pair of iterations;
* every observed conflict ``(I, J)`` — source iteration ``I``, sink
  iteration ``J`` — is covered by a reported vector: at each level the
  vector holds the distance ``J − I`` or a direction that admits it.

Reported vectors that no iteration realizes are imprecision, not a
failure.  This checks the tester against execution rather than against
an earlier version of itself, so it sees bugs the parity suites cannot
(both walks share the per-position tests).
"""

import operator
from itertools import product

from repro.dependence import analyze_unit
from repro.fortran import parse_and_bind
from repro.fortran.printer import expr_to_str

from tests.perf.test_batch_parity import generate_routine

SEEDS = range(100)


def _touches(access, space):
    """Element touched by ``access`` in each iteration of ``space``; the
    generated subscripts are affine integer expressions that read the
    same in Python."""

    subs = [compile(expr_to_str(e), "<subscript>", "eval") for e in access.subs]
    names = [loop.var for loop in access.nest]
    return [
        (it, tuple(eval(code, {}, dict(zip(names, it))) for code in subs))
        for it in space
    ]


def _admits(elem, distance: int) -> bool:
    if isinstance(elem, int):
        return elem == distance
    if elem == "*":
        return True
    return elem == ("<" if distance > 0 else "=" if distance == 0 else ">")


def _routines():
    """Seeded routines with constant bounds and at most two loops."""

    for seed in SEEDS:
        source = generate_routine(seed)
        if ", n\n" in source or source.count(" do ") > 2:
            continue
        yield seed, source


def test_reported_vectors_cover_every_observed_conflict():
    checked = 0
    failures = []
    for seed, source in _routines():
        ua = analyze_unit(parse_and_bind(source).units[0])
        nest = ua.loops[-1].parents + (ua.loops[-1].loop,)
        space = list(
            product(*(range(lp.start.value, lp.end.value + 1) for lp in nest))
        )
        for pair in ua.pair_results:
            src, snk = pair.src, pair.snk
            if not (src.is_write or snk.is_write):
                continue
            if "n" in src.signature()[1] | snk.signature()[1]:
                continue  # the elements depend on the unknown n
            assert src.nest == snk.nest == nest
            checked += 1
            sink_at = {}
            for it, elem in _touches(snk, space):
                sink_at.setdefault(elem, []).append(it)
            distances = set()
            for i_src, elem in _touches(src, space):
                for i_snk in sink_at.get(elem, ()):
                    if src is snk and i_src == i_snk:
                        continue  # one access instance, not a conflict
                    distances.add(tuple(map(operator.sub, i_snk, i_src)))
            vectors = [v.vector for v in pair.vectors]
            missed = sorted(
                d
                for d in distances
                if not any(
                    all(_admits(e, x) for e, x in zip(v, d)) for v in vectors
                )
            )
            if missed:
                failures.append((seed, src.line, snk.line, missed[0], vectors))
    # Guard against a vacuous pass if the generator or filter drifts.
    assert checked >= 100, checked
    assert not failures, failures
