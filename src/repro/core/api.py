"""The public API in four verbs.

>>> from repro.core import parse, analyze, open_session, parallelize_program
>>> sf = parse(source_text)                 # front end
>>> pa = analyze(source_text)               # whole-program analysis
>>> session = open_session(source_text)     # interactive Ped session
>>> result = parallelize_program(source_text)  # best-effort auto mode

``parallelize_program`` is the "automatic tool" the paper contrasts Ped
against: it applies only what analysis alone justifies (no assertions, no
markings, no user insight) — by design it leaves on the table exactly the
loops whose parallelization needed the interactive features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..editor.session import PedSession
from ..fortran.ast_nodes import SourceFile
from ..fortran.symbols import parse_and_bind
from ..incremental import AnalysisEngine
from ..interproc.program import FeatureSet, ProgramAnalysis
from ..transform.base import TransformContext
from ..transform.parallelize import Parallelize


def parse(source: str) -> SourceFile:
    """Parse and bind Fortran source (the front end in one call)."""

    return parse_and_bind(source)


def _store_engine(features, cache_dir) -> AnalysisEngine:
    from ..service import build_engine

    return build_engine(features=features, cache_dir=cache_dir)


def analyze(
    source: str,
    features: Optional[FeatureSet] = None,
    engine: Optional[AnalysisEngine] = None,
    cache_dir=None,
) -> ProgramAnalysis:
    """Full whole-program analysis of Fortran source text.

    Passing an :class:`AnalysisEngine` reuses its caches across calls
    (and its feature set wins); otherwise a fresh engine runs a cold
    analysis equivalent to the classic ``analyze_program`` pipeline.
    ``cache_dir`` gives that fresh engine a persistent warm-start cache.
    """

    if engine is None:
        engine = _store_engine(features, cache_dir)
    _, pa = engine.analyze(source)
    return pa


def open_session(
    source: str,
    features: Optional[FeatureSet] = None,
    engine: Optional[AnalysisEngine] = None,
    cache_dir=None,
) -> PedSession:
    """Open an interactive Ped session over the source text.

    ``cache_dir`` makes reopening the same program start from the
    on-disk cache.
    """

    if engine is None and cache_dir:
        engine = _store_engine(features, cache_dir)
    return PedSession(source, features=features, engine=engine)


@dataclass
class AutoResult:
    """Outcome of the non-interactive best-effort parallelizer."""

    source: str
    parallelized: List[Tuple[str, int]] = field(default_factory=list)
    skipped: Dict[Tuple[str, int], str] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.parallelized)


def parallelize_program(
    source: str,
    features: Optional[FeatureSet] = None,
    require_profitable: bool = True,
    engine: Optional[AnalysisEngine] = None,
    cache_dir=None,
) -> AutoResult:
    """Automatic mode: parallelize every loop the analysis alone proves
    safe (outermost-first; loops inside an already-parallel loop are left
    sequential, matching single-level parallel hardware)."""

    if engine is None and cache_dir:
        engine = _store_engine(features, cache_dir)
    session = PedSession(source, features=features, engine=engine)
    transform = Parallelize()
    result = AutoResult(source)
    rewritten = []
    for unit_name in sorted(session.analysis.units):
        ua = session.analysis.unit(unit_name)
        covered: set = set()
        for idx, nest in enumerate(ua.loops):
            if any(id(p) in covered for p in nest.parents):
                continue
            ctx = TransformContext(ua.unit, ua)
            advice = transform.diagnose(ctx, loop=nest.loop)
            if not advice.ok or (require_profitable and not advice.profitable):
                reason = "; ".join(advice.reasons) or "unsafe"
                result.skipped[(unit_name, idx)] = reason
                continue
            transform.apply(ctx, loop=nest.loop)
            covered.add(id(nest.loop))
            result.parallelized.append((unit_name, idx))
        if covered:
            rewritten.append(ua.unit)
    # The transforms above rewrote those units in place; the write-back
    # also makes the session's engine forget their parses.
    session.write_back(rewritten)
    result.source = session.source
    return result
