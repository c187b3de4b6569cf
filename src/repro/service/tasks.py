"""The task kinds the pools run.

The three per-unit kinds take the calling engine's own objects and run
inline: :class:`~repro.incremental.engine.AnalysisEngine` calls
``repro.service.pool.run_task`` for every span parse, summary step and
dependence analysis, so each stage has one call path, and that name is
the layer seam the benchmark's tracer wraps.  Only corpus batches may
ship tasks to worker processes (:class:`~repro.service.pool.WorkerPool`),
so only the ``corpus`` payload and its result record must be picklable.

* ``parse`` — a :class:`~repro.incremental.splitter.UnitSpan` → its
  unbound procedure units, parsed padded to the span's absolute start
  line.  The engine binds them itself, once every span of the walk is
  parsed, so a parse error in any span surfaces before a bind error in
  another.
* ``summary`` — ``(step, unit, callgraph, summaries)`` → one bottom-up
  summary step (MOD/REF, kill or sections) for ``unit`` over the
  engine's call graph and its current summaries.
* ``dep`` — ``(unit, config)`` → the unit's full dependence analysis
  under its :class:`~repro.dependence.driver.AnalysisConfig`.
* ``corpus`` — one whole corpus program end to end (the coarsest grain):
  a fresh engine analyzes the payload's source and projects the
  result onto the corpus record (:func:`repro.pipeline.corpus.
  analyze_program_result`).  Errors come back as records, not raises.

Every dispatch goes through :func:`run_task`, and the pool preserves
submission order, so serial and process-pool corpus runs produce the
same records in the same order.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List

from ..dependence.driver import UnitAnalysis, analyze_unit
from ..fortran.ast_nodes import ProcedureUnit
from ..fortran.parser import parse_source

if TYPE_CHECKING:
    from ..incremental.splitter import UnitSpan


def task_parse(span: "UnitSpan") -> List[ProcedureUnit]:
    """Parse one span, padded so line numbers stay absolute."""

    padded = "\n" * (span.start_line - 1) + span.text
    return list(parse_source(padded).units)


def task_summary(payload):
    """One summary step: ``step(unit, callgraph, summaries)``."""

    step, unit, cg, summaries = payload
    return step(unit, cg, summaries)


def task_dependence(payload) -> UnitAnalysis:
    """Full per-unit dependence analysis: ``analyze_unit(unit, config)``."""

    unit, config = payload
    return analyze_unit(unit, config)


def task_corpus(payload: Dict) -> Dict:
    """One corpus program → its result record (never raises)."""

    from ..pipeline.corpus import analyze_program_result

    return analyze_program_result(payload)


_TASKS = {
    "parse": task_parse,
    "summary": task_summary,
    "dep": task_dependence,
    "corpus": task_corpus,
}


def run_task(kind: str, payload):
    """Dispatch one task: the one entry point every pool calls."""

    return _TASKS[kind](payload)


def run_task_timed(item):
    """Pool entry point: ``(kind, payload) -> (result, busy_seconds)``."""

    kind, payload = item
    t0 = time.perf_counter()
    result = run_task(kind, payload)
    return result, time.perf_counter() - t0
