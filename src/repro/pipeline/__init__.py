"""Corpus-scale batch analysis and its fleet-wide rollups.

Per-program analysis is :class:`~repro.incremental.AnalysisEngine`'s
job; this package runs it over many programs at once:

* :mod:`repro.pipeline.corpus` — corpus jobs: batch analysis of many
  programs over the corpus pool, with cached aggregate queries;
* :mod:`repro.pipeline.aggregate` — the rollups over per-program result
  records (obstacle ranking, dependence-test tier histograms,
  transformation applicability, corpus totals).
"""

from __future__ import annotations

from .aggregate import AGGREGATES, run_aggregate
from .corpus import (
    CorpusError,
    CorpusJob,
    CorpusRunner,
    analyze_program_result,
)

__all__ = [
    "AGGREGATES",
    "run_aggregate",
    "CorpusError",
    "CorpusJob",
    "CorpusRunner",
    "analyze_program_result",
]
