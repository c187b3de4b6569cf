"""The pipeline-node graph: addressable analysis steps and rollups.

Ped's incremental engine re-runs only what an edit invalidated, but
its stages used to form one hard-wired linear chain.  This package
makes the pipeline first-class:

* :mod:`repro.pipeline.nodes` — :class:`Node` (declared inputs/outputs,
  content-hash keying) and :class:`NodeResult`;
* :mod:`repro.pipeline.graph` — :class:`PipelineGraph`: deterministic
  scheduling, downstream invalidation along declared edges, node-level
  entry (``entry_for``);
* :mod:`repro.pipeline.program` — the per-program analysis graph the
  engine executes (parse → summaries ∥ ipconst → dependence);
* :mod:`repro.pipeline.aggregate` — fleet-wide rollup nodes downstream
  of per-program results (obstacle ranking, dependence-test tier
  histograms, transformation applicability);
* :mod:`repro.pipeline.corpus` — corpus jobs: batch analysis of many
  programs over the corpus pool, with cached aggregate queries.
"""

from __future__ import annotations

from .aggregate import AGGREGATES, run_aggregate
from .corpus import (
    CorpusError,
    CorpusJob,
    CorpusRunner,
    analyze_program_result,
)
from .graph import GraphError, PipelineGraph
from .nodes import Node, NodeResult
from .program import ANALYSIS_NODES, build_program_graph

__all__ = [
    "Node",
    "NodeResult",
    "PipelineGraph",
    "GraphError",
    "ANALYSIS_NODES",
    "build_program_graph",
    "AGGREGATES",
    "run_aggregate",
    "CorpusError",
    "CorpusJob",
    "CorpusRunner",
    "analyze_program_result",
]
