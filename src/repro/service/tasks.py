"""The task kinds the pools run.

Each task is a function of its payload alone — it holds no reference
to the calling engine.  Session engines run the three per-unit kinds
inline (:class:`~repro.service.pool.SerialPool`); corpus batches may
ship ``corpus`` tasks to worker processes
(:class:`~repro.service.pool.WorkerPool`), so that payload and its
result record are picklable.

* ``parse`` — parse one source span (padded to its absolute start line)
  into unbound procedure units; binding stays with the engine since it
  needs the whole unit set.
* ``summary`` — one bottom-up summary step (MOD/REF, kill or sections)
  for one unit, given its call sites and its callees' current summaries.
  Used for batches of same-level, non-recursive units, where a single
  step call *is* the unit's fixpoint.
* ``dep`` — the full per-unit dependence analysis.  The payload carries
  the unit, its direct callee units and the summary dictionaries; the
  task rebuilds the providers over a minimal call graph that answers
  exactly the same queries the whole-program graph would.
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
from typing import Dict, List, Sequence

from ..assertions.engine import AssertionDB
from ..dependence.driver import UnitAnalysis, analyze_unit
from ..fortran.ast_nodes import ProcedureUnit
from ..fortran.parser import parse_source
from ..interproc.callgraph import CallGraph, CallSite
from ..interproc.ipkill import unit_kills
from ..interproc.modref import local_summary
from ..interproc.program import FeatureSet, build_providers, unit_config
from ..interproc.sections import unit_sections

_SUMMARY_STEPS = {
    "modref": local_summary,
    "kill": unit_kills,
    "sections": unit_sections,
}


def task_parse(payload: Dict) -> List[ProcedureUnit]:
    """Parse one span, pre-padded so line numbers stay absolute."""

    padded = "\n" * (payload["start_line"] - 1) + payload["text"]
    return list(parse_source(padded).units)


def _mini_callgraph(
    unit: ProcedureUnit,
    callee_units: Dict[str, ProcedureUnit],
    sites: Sequence[CallSite],
) -> CallGraph:
    """A call graph restricted to one caller and its direct callees.

    The summary steps and the dependence providers only ever ask for
    ``sites_in(unit)``, membership of ``units`` for this unit's callees,
    and the callee ASTs — all of which this graph answers identically to
    the whole-program graph it was cut from.
    """

    cg = CallGraph()
    cg.units[unit.name] = unit
    cg.callees[unit.name] = set(callee_units)
    cg.callers.setdefault(unit.name, set())
    for name, callee in callee_units.items():
        cg.units.setdefault(name, callee)
        cg.callees.setdefault(name, set())
        cg.callers.setdefault(name, set()).add(unit.name)
    cg.sites = list(sites)
    return cg


def task_summary(payload: Dict):
    """One summary-step evaluation: the unit's fixpoint at its level."""

    unit: ProcedureUnit = payload["unit"]
    cg = _mini_callgraph(unit, payload["callee_units"], payload["sites"])
    step = _SUMMARY_STEPS[payload["phase"]]
    return step(unit, cg, payload["summaries"])


def task_dependence(payload: Dict) -> UnitAnalysis:
    """Full per-unit dependence analysis from a self-contained payload."""

    unit: ProcedureUnit = payload["unit"]
    features: FeatureSet = payload["features"]
    cg = _mini_callgraph(unit, payload["callee_units"], payload["sites"])
    providers = build_providers(
        cg,
        features,
        payload["modref"],
        payload["sections"],
        payload["kills"],
    )
    oracle = None
    if payload["asserts"]:
        oracle = AssertionDB()
        for text in payload["asserts"]:
            oracle.add(text)
    config = unit_config(
        unit.name,
        features,
        providers,
        {unit.name: payload["constants"]},
        oracle,
        shared_memo=payload["memo"],
    )
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


def run_task(kind: str, payload: Dict):
    """Dispatch one task: the one entry point every pool calls."""

    return _TASKS[kind](payload)


def run_task_timed(item):
    """Pool entry point: ``(kind, payload) -> (result, busy_seconds)``."""

    kind, payload = item
    t0 = time.perf_counter()
    result = run_task(kind, payload)
    return result, time.perf_counter() - t0
