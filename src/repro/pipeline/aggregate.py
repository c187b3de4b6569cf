"""Aggregates: fleet-wide rollups over per-program result records.

The paper's Tables 2 and 3 summarize *one suite*; at corpus scale the
same questions become standing queries — which obstacle blocks the most
loops fleet-wide, how far down the dependence-test hierarchy the corpus
actually drives the tester, which transformations apply where.  Each
rollup reads the per-program result records produced by
:mod:`repro.pipeline.corpus`, and :func:`aggregate_key` names the
records a rollup covered, so an executor caches it exactly as long as
those records stand: resubmitting a program with changed source changes
its result digest, which changes the key, which recomputes the rollup;
a repeated query replays the cache.

Every rollup function is pure and order-insensitive (results are
processed in sorted program order), so corpus aggregates equal the
serial sum of per-program results by construction
(``tests/pipeline/test_corpus.py`` checks it).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "AGGREGATES",
    "aggregate_key",
    "run_aggregate",
    "rollup_obstacles",
    "rollup_tiers",
    "rollup_transforms",
    "rollup_summary",
]


def _merge_counts(
    results: Sequence[Dict], field: str
) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for res in sorted(results, key=lambda r: r.get("program", "")):
        for key, n in (res.get(field) or {}).items():
            out[key] = out.get(key, 0) + int(n)
    return out


def _ranked(counts: Dict[str, int]) -> List[Tuple[str, int]]:
    """Counts as (name, n) rows, most frequent first, name tie-break."""

    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def rollup_obstacles(results: Sequence[Dict]) -> Dict:
    """Which obstacle blocks the most loops fleet-wide."""

    counts = _merge_counts(results, "obstacles")
    ranked = _ranked(counts)
    return {
        "obstacles": counts,
        "ranked": [{"obstacle": o, "loops": n} for o, n in ranked],
        "top": ranked[0][0] if ranked else None,
        "blocked_loops": sum(counts.values()),
    }


def rollup_tiers(results: Sequence[Dict]) -> Dict:
    """Dependence-test tier histogram (pairs resolved per tier)."""

    counts = _merge_counts(results, "tiers")
    return {
        "tiers": counts,
        "pairs": sum(counts.values()),
    }


def rollup_transforms(results: Sequence[Dict]) -> Dict:
    """Transformation-applicability counts (Table 2 at corpus scale)."""

    counts = _merge_counts(results, "transforms")
    return {
        "transforms": counts,
        "ranked": [
            {"transform": t, "loops": n} for t, n in _ranked(counts)
        ],
    }


def rollup_summary(results: Sequence[Dict]) -> Dict:
    """Corpus-wide totals: programs, units, loops, parallelizability."""

    ok = [r for r in results if not r.get("error")]
    loops = sum(r.get("loops", 0) for r in ok)
    parallel = sum(r.get("parallel_loops", 0) for r in ok)
    return {
        "programs": len(results),
        "errors": sum(1 for r in results if r.get("error")),
        "units": sum(r.get("units", 0) for r in ok),
        "loops": loops,
        "parallel_loops": parallel,
        "parallel_fraction": (parallel / loops) if loops else 0.0,
    }


#: Aggregate name -> rollup function.
AGGREGATES: Dict[str, Callable[[Sequence[Dict]], Dict]] = {
    "obstacles": rollup_obstacles,
    "tiers": rollup_tiers,
    "transforms": rollup_transforms,
    "summary": rollup_summary,
}


def aggregate_key(results: Sequence[Dict]) -> Tuple[Tuple[str, str], ...]:
    """The records a rollup covers: their sorted ``(program, digest)``
    pairs (order-insensitive by construction)."""

    return tuple(
        sorted((r.get("program", ""), r.get("digest", "")) for r in results)
    )


def run_aggregate(name: str, results: Sequence[Dict]) -> Dict:
    """Compute one rollup (no caching — executors own their caches)."""

    try:
        fn = AGGREGATES[name]
    except KeyError:
        known = ", ".join(sorted(AGGREGATES))
        raise KeyError(
            f"unknown aggregate {name!r}; known: {known}"
        ) from None
    return fn(results)
