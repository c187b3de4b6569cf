"""Experiment M1: the dependence-test hierarchy statistics.

"A hierarchical suite of tests is used, starting with inexpensive tests"
— the engineering claim is that the cheap tiers (ZIV and the exact SIV
family) dispose of the large majority of reference pairs, leaving only a
small residue for GCD/Banerjee.  This module aggregates, over the whole
suite, how many access pairs each tier resolved and how many individual
tests ran per tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..fortran.symbols import parse_and_bind
from ..interproc.program import FeatureSet, analyze_program
from ..workloads.suite import SUITE


@dataclass
class HierarchyStats:
    """Aggregate tier statistics over a set of programs."""

    pairs_resolved: Dict[str, int] = field(default_factory=dict)
    classic_resolved: Dict[str, int] = field(default_factory=dict)
    tests_run: Dict[str, int] = field(default_factory=dict)
    total_pairs: int = 0
    total_classic: int = 0

    def cheap_fraction(self) -> float:
        """Fraction of *classic element-reference pairs* settled by the
        cheap tiers (structural pruning, ZIV and exact SIV) — the paper's
        engineering claim.  Call-site section pairs are excluded: they
        always need the range-overlap (Banerjee-machinery) tier by
        construction.  Pairs the driver pruned before any test ran are
        the cheapest disposal of all, so they count toward the claim."""

        if not self.total_classic:
            return 0.0
        cheap = (
            self.classic_resolved.get("pruned", 0)
            + self.classic_resolved.get("ziv", 0)
            + self.classic_resolved.get("siv", 0)
        )
        return cheap / self.total_classic


def dependence_test_stats(
    names: Optional[Sequence[str]] = None,
    features: Optional[FeatureSet] = None,
) -> HierarchyStats:
    """Run dependence analysis over the suite and aggregate tier stats."""

    stats = HierarchyStats()
    for name in names or SUITE:
        prog = SUITE[name]
        sf = parse_and_bind(prog.source)
        pa = analyze_program(sf, features or FeatureSet())
        for ua in pa.units.values():
            for tier, count in ua.tester.pair_resolution.items():
                stats.pairs_resolved[tier] = (
                    stats.pairs_resolved.get(tier, 0) + count
                )
                stats.total_pairs += count
            for tier, count in ua.tester.pair_resolution_classic.items():
                stats.classic_resolved[tier] = (
                    stats.classic_resolved.get(tier, 0) + count
                )
                stats.total_classic += count
            for tier, count in ua.tester.tier_counts.items():
                stats.tests_run[tier] = stats.tests_run.get(tier, 0) + count
    return stats
