"""The incremental analysis engine: demand-driven, cached reanalysis.

Ped's defining property is *interactive* analysis — it reanalyzes after
every edit, assertion and transformation.  :class:`AnalysisEngine` makes
that cheap by owning the parse → interprocedural-summary → dependence
pipeline as keyed, cached stages.  Every analysis runs them in one fixed
order — split, parse, callgraph, the summary stages the feature set
enables (modref, kill, sections, ipconst), dependence — and the caches
decide what each stage recomputes:

* **Parse cache** — the source is split into per-unit spans
  (:mod:`repro.incremental.splitter`), spliced from the previous split
  so an edit re-reads only the spans around the lines it changed; each
  span is parsed on its own, padded with blank lines so statement
  numbering stays absolute, and the resulting unit is cached under a
  digest of the span's text alone.  An edit confined to one procedure
  reparses only that procedure.  A cached span found at another start
  line (an edit above it changed the line count) is *relocated*: its
  units' lines, and the dependence entry computed from them (edge
  endpoints and the line-naming loop obstacles), move by the
  difference, and it is a hit.  Every line the engine hands out stays
  absolute, and the parse revision stays, so the unit's summaries,
  constant fold and dependence entry all hit too.  A text that occurs
  twice in one source is parsed apart for its second occurrence: the
  two never share an entry.
* **Summary caches** — MOD/REF, kill and section summaries are cached
  per unit and recomputed bottom-up with *early cutoff*: a unit is
  re-folded only when it changed itself or a callee's summary came out
  different (by the phase's own equality) earlier in the same walk, so
  a recomputation that reproduces the old value stops the cascade at
  that unit — and does not bump its summary revision, so dependence
  entries keyed on it stay valid.  Recomputed recursive SCCs re-run the
  original fixpoint seeded from empty summaries, with every other unit
  contributing its cached value, so the result matches a from-scratch
  computation.  The section summary carries the unit's formal
  signature, through which call sites bind scalar actuals, so callers
  read nothing of a callee beyond its summaries and a reordered formal
  list is a new value.  The bottom-up schedule is kept while no callee
  set changes.  Interprocedural constants are invalidated *down* the
  call graph (a change propagates to callees); each caller's constant
  fold is kept under its parse revision and inherited constants.
* **Dependence cache** — each unit's :class:`UnitAnalysis` is keyed by
  its parse revision, its assertion texts, its inherited constants and
  the summary revisions of its direct callees; a key is rebuilt only
  for units one of those inputs may have moved for.  Sessions mutate
  edge markings and loop verdicts in place and report which units they
  touched (:meth:`AnalysisEngine.note_mutated`); a hit on such a unit
  restores the pristine state recorded at analysis time, so every hit
  is indistinguishable from a fresh analysis.

Assertion and reclassification changes therefore reanalyze without any
reparse; marking changes never touch the engine at all.  Binding reads
one unit (:class:`~repro.fortran.symbols.Binder`), so a span's parse
holds in any program that contains the span: adding, renaming or
deleting a routine reparses only the spans that changed, reaches
summaries and dependence keys through the parse revisions and the
callee and caller sets like any other edit, and ``_drop_units_not_in``
forgets the units that are gone.  A caller that rewrites a unit's AST
in place (a transformation: cached units alias the session's AST)
reports it with :meth:`AnalysisEngine.forget`, which drops that span's
parse and nothing else.  The rewritten text then comes back as an edit
confined to that unit, and a later walk of the old text reparses the
old span like any other cache miss.

:meth:`AnalysisEngine.parse` runs only the split and parse stages, for
a caller that needs the bound program but not yet its analysis (journal
replay between records).  Change detection keeps comparing against the
last walk, so the walk after any number of parses is the one a single
edit spanning them would run.

Every span parse, every summary step (recursive SCCs' fixpoint steps
too) and every per-unit dependence analysis runs inline, in a fixed
order, as one call of ``repro.service.pool.run_task`` (looked up on the
module at call time, since that name is the layer seam the benchmark's
tracer wraps) on the engine's own objects: the unit, the walk's call
graph and summaries, and a config built with the same
:func:`~repro.interproc.program.build_providers` and
:func:`~repro.interproc.program.unit_config` that
:func:`~repro.interproc.program.analyze_program` composes.

Streaming clients see one ``analysis.progress`` event per stage (one
per unit in the dependence stage), then a per-walk ``graph`` summary,
``{entry, hits, recomputed}``, that says where the inputs moved since
the last walk: ``split`` for a new source, ``dependence`` for an
assertion change alone, ``None`` for an identical rerun.

The service layer plugs in through the **persistent store**: with a
:class:`~repro.service.persist.PersistentStore` attached, a cold engine
first tries a warm start from the program's manifest, which names one
unit record per span (the span's units with their summaries and
dependence entries) next to the summary revisions and the
change-detection baseline; parse misses fall back to per-span disk
records, which serve any program that contains the span.  Both kinds
of record carry the start line their lines were written at, and a
restored entry is relocated to its span's start like a moved hit, so a
record written once serves its text at any position.  Every
analysis spills back what it changed: new span records, a summary
record for each unit whose summaries it recomputed, a unit record for
each span whose units the walk refreshed, and the manifest.  The shared
pair-test memo crosses processes the same way: each analysis first folds in the
memo segments other processes wrote, and last writes the entries it
proved as one new segment.  Any invalid or corrupt record degrades to
recomputation.

Known approximation: interprocedural constants iterate at most the same
five Jacobi rounds as the from-scratch pass, so on call chains deeper
than five the cached warm start can be *sharper* than a cold run; the
workload suite is well inside the bound (verified by the parity tests).
"""

from __future__ import annotations

import hashlib
import logging
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..assertions.engine import AssertionDB
from ..dependence.driver import UnitAnalysis, structural_obstacles
from ..dependence.hierarchy import SharedPairMemo
from ..fortran.ast_nodes import (
    CallStmt,
    FuncRef,
    ProcedureUnit,
    SourceFile,
    Stmt,
    shift_lines,
    statement_exprs,
    walk_expr,
    walk_statements,
)
from ..fortran.symbols import Binder
from ..interproc.callgraph import CallGraph, CallSite
from ..interproc.ipconst import gather_site_proposals, resolve_slot
from ..interproc.ipkill import KillInfo, unit_kills
from ..interproc.modref import ModRefInfo, local_summary
from ..interproc.program import (
    FeatureSet,
    ProgramAnalysis,
    build_providers,
    kills_view,
    unit_config,
)
from ..interproc.sections import SectionInfo, sections_differ, unit_sections
from ..analysis.constants import propagate_constants
from ..service import pool
from ..service.persist import features_digest
from .splitter import UnitSpan, split_units
from .stats import EngineStats

log = logging.getLogger(__name__)

_PHASES = ("modref", "kill", "sections", "ipconst")


@dataclass(frozen=True)
class _CallCandidate:
    """A potential call site: resolved against the current unit set at
    call-graph assembly time (the callee may not be a program unit)."""

    callee: str
    stmt: Stmt  # carrier statement (for the sid)
    call: object  # CallStmt or FuncRef (for args and line)
    is_function: bool


@dataclass
class _SpanEntry:
    """Cached parse of one source span (usually exactly one unit), bound
    and valid in any program that contains the span.  ``start`` is the
    start line its units' lines assume (:meth:`AnalysisEngine._relocate`
    moves them)."""

    digest: str
    start: int
    rev: int
    units: List[ProcedureUnit]
    candidates: Optional[List[List[_CallCandidate]]] = None


@dataclass
class _DepEntry:
    """Cached per-unit dependence analysis plus its pristine mutable state.

    ``record`` is the key of the disk unit record holding the entry
    (``None`` until one is written): a reused entry stays in the record
    it was first written to."""

    key: tuple
    ua: UnitAnalysis
    markings: List[str]
    verdicts: Dict[int, Tuple[List[str], bool]]
    record: Optional[str] = None


@dataclass
class _ProgramState:
    """What the previous analyze saw — the baseline for change detection."""

    revs: Dict[str, int]
    callee_sets: Dict[str, tuple]
    caller_sets: Dict[str, tuple]


@dataclass
class _Run:
    """Mutable state of one pipeline walk, threaded through the stages
    in their fixed order (each stage reads what earlier stages put
    here)."""

    source: str
    asserts: Dict[str, tuple]
    spans: List[UnitSpan] = field(default_factory=list)
    entries: List[_SpanEntry] = field(default_factory=list)
    sf: Optional[SourceFile] = None
    cg: Optional[CallGraph] = None
    revs: Dict[str, int] = field(default_factory=dict)
    callee_sets: Dict[str, tuple] = field(default_factory=dict)
    caller_sets: Dict[str, tuple] = field(default_factory=dict)
    changed: Set[str] = field(default_factory=set)
    ukeys: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Disk-restored ``{unit: {phase: value}}``, filled on first demand.
    warm: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Units whose bottom-up summaries this walk recomputed or restored.
    summarized: Set[str] = field(default_factory=set)
    pa: Optional[ProgramAnalysis] = None


def _closure(seed: Set[str], edges: Dict[str, Set[str]]) -> Set[str]:
    out = set(seed)
    stack = list(seed)
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in out:
                out.add(nxt)
                stack.append(nxt)
    return out


def _scc_schedule(cg: CallGraph) -> List[Tuple[List[str], bool]]:
    """Bottom-up summary schedule: ``(group, recursive)`` batches.

    Non-recursive SCCs (the overwhelmingly common case in Fortran 77)
    at the same call-graph depth cannot read each other's summaries, so
    they form one batch of single step calls; recursive SCCs keep their
    fixpoint iteration.  Batches are emitted callees-first, so by the
    time a group runs every summary it can read is final.
    """

    level_of: Dict[str, int] = {}
    level_batches: Dict[int, List[str]] = {}
    level_recursive: Dict[int, List[List[str]]] = {}
    for scc in cg.sccs_bottom_up():
        members = set(scc)
        level = 0
        for n in scc:
            for callee in cg.callees.get(n, ()):
                if callee not in members:
                    level = max(level, level_of[callee] + 1)
        for n in scc:
            level_of[n] = level
        recursive = len(scc) > 1 or scc[0] in cg.callees.get(scc[0], ())
        if recursive:
            level_recursive.setdefault(level, []).append(list(scc))
        else:
            level_batches.setdefault(level, []).append(scc[0])
    schedule: List[Tuple[List[str], bool]] = []
    for level in sorted(set(level_batches) | set(level_recursive)):
        for scc in level_recursive.get(level, ()):
            schedule.append((scc, True))
        batch = level_batches.get(level)
        if batch:
            schedule.append((batch, False))
    return schedule


class AnalysisEngine:
    """Incremental replacement for ``analyze_program(parse_and_bind(...))``.

    One engine serves one feature set; sessions hold one engine for their
    whole lifetime and undo/redo simply re-present previously seen source,
    which the content-keyed caches turn into near-free restores.
    """

    SPAN_CACHE_LIMIT = 1024

    def __init__(
        self,
        features: Optional[FeatureSet] = None,
        stats: Optional[EngineStats] = None,
        store=None,
        shared_memo: Optional[SharedPairMemo] = None,
    ) -> None:
        self.features = features or FeatureSet()
        self.stats = stats or EngineStats()
        self._store = store
        self._rev_next = 1
        self._spans: Dict[str, _SpanEntry] = {}
        #: ``source -> spans`` of the last two sources split (the previous
        #: walk and the current one): the invalidation diff and a rejected
        #: edit's rollback read them instead of splitting again.
        self._splits: Dict[str, List[UnitSpan]] = {}
        self._summaries: Dict[str, Dict[str, object]] = {p: {} for p in _PHASES}
        self._summary_revs: Dict[str, Dict[str, int]] = {p: {} for p in _PHASES}
        self._deps: Dict[str, _DepEntry] = {}
        self._last: Optional[_ProgramState] = None
        self._reset_walk_memos()
        self._spilled_spans: Set[str] = set()
        #: Program-scoped pair-test memo: one per engine by default, or
        #: injected (the Ped server shares one across session engines).
        self._shared_memo = (
            shared_memo if shared_memo is not None else SharedPairMemo()
        )
        self._memo_loaded = False
        self._spilled_usums: Set[str] = set()
        #: Optional progress listener, ``callable(phase: str, detail:
        #: dict)``, invoked at every pipeline stage boundary (and once
        #: per unit in the dependence stage).  The session server routes
        #: this to ``analysis.progress`` events for streaming clients;
        #: emission is observation-only and never alters results.
        self.progress = None
        #: ``(source, assertions)`` of the last completed walk: what the
        #: next walk's ``graph`` progress event reports moves against.
        self._last_inputs: Optional[Tuple[str, tuple]] = None

    @property
    def store(self):
        return self._store

    @property
    def shared_memo(self) -> SharedPairMemo:
        return self._shared_memo

    def _emit_progress(self, phase: str, **detail) -> None:
        cb = self.progress
        if cb is None:
            return
        try:
            cb(phase, detail)
        except Exception:  # noqa: BLE001 — listeners never break analysis
            log.warning("progress listener failed for %r", phase, exc_info=True)

    def _store_stats(self) -> EngineStats:
        """Where shared-store counters (memo deltas) accumulate:
        the store's stats when attached (the server-wide object in a
        multi-session server), else this engine's own."""

        store_stats = getattr(self._store, "stats", None)
        return store_stats if store_stats is not None else self.stats

    def _new_rev(self) -> int:
        rev = self._rev_next
        self._rev_next += 1
        return rev

    def _reset_walk_memos(self) -> None:
        """Forget what lets a walk skip unchanged units (on a fresh
        engine and on a disk warm start)."""

        #: Feature-restricted kill summaries (``kills_view``), refreshed
        #: per unit when its kill summary is recomputed.
        self._kill_views: Dict[str, KillInfo] = {}
        #: Per caller: the ``(parse revision, inherited constants)`` it
        #: was last folded under, and ``propagate_constants``' map.
        self._const_maps: Dict[str, Tuple[tuple, object]] = {}
        #: ``((unit order, callee sets), schedule)`` of the last summary
        #: schedule: it is a function of exactly those.
        self._schedule: Optional[Tuple[tuple, list]] = None
        #: Units whose dependence key may have moved since the last
        #: dependence stage completed; ``None`` means every unit.
        self._dep_stale: Optional[Set[str]] = None
        #: The assertion texts that stage keyed its entries with.
        self._dep_asserts: Dict[str, tuple] = {}
        #: Units whose cached analysis a session changed in place
        #: (:meth:`note_mutated`); the next walk restores them.
        self._mutated: Set[str] = set()
        #: Units the last walk analyzed afresh or restored to their
        #: pristine state; every other unit's analysis is the object the
        #: walk before handed out, untouched since.
        self.refreshed: Set[str] = set()

    def note_mutated(self, names) -> None:
        """Record that the caller changed these units' analyses in place
        (edge markings, loop verdicts): the next walk restores their
        pristine state, and no other unit's."""

        self._mutated.update(names)

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------

    def forget(self, source: str, units) -> None:
        """Drop the parse of each span of ``source`` that holds one of
        ``units``.

        For a caller that rewrote those units' ASTs in place (a
        transformation): the cached parse no longer matches its span's
        text, and nothing else the engine holds aliases those ASTs where
        a walk could reach it.  Summaries are values, and a unit's
        dependence entry and constant fold are keyed on its parse
        revision, which the reparse of either the new or the old text
        moves.  ``source`` is the text ``units`` were parsed from.
        """

        held = {id(u) for u in units}
        for span in self._split(source):
            entry = self._spans.get(span.digest)
            if entry is not None and any(id(u) in held for u in entry.units):
                del self._spans[span.digest]

    def spans(self, source: str) -> List[UnitSpan]:
        """``source``'s unit spans: free for the last two sources
        analyzed, spliced from the last split otherwise."""

        return self._split(source)

    def changed_units(self, old_source: str, new_source: str) -> Set[str]:
        """Names of units whose span text differs between two sources —
        the invalidation hook the session host broadcasts from after a
        mutating operation.  A unit that only moved (an edit above it
        changed the line count) keeps its digest and is not named.

        Purely a span-digest diff resolved through the parse cache.  The
        spans are read from the engine's last two splits (a session's
        engine walked ``old_source`` before and ``new_source`` just now),
        so the diff neither lexes nor parses anything; a source split
        longer ago is split again.  Digests the cache no longer holds
        (trimmed, forgotten, never seen) are simply not attributable and
        contribute no names.
        """

        old = {s.digest for s in self._split(old_source)}
        new = {s.digest for s in self._split(new_source)}
        changed: Set[str] = set()
        for digest in old.symmetric_difference(new):
            entry = self._spans.get(digest)
            if entry is not None:
                changed.update(u.name for u in entry.units)
        return changed

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------

    def analyze(
        self,
        source: str,
        assertions: Optional[Dict[str, Sequence[str]]] = None,
    ) -> Tuple[SourceFile, ProgramAnalysis]:
        """(Re)analyze ``source``, reusing every cache the edit allows.

        ``assertions`` maps unit names to assertion texts (the session's
        ``assertion_texts``); they enter the per-unit dependence cache key
        so an assertion change reanalyzes only its unit — without any
        reparse.  Returns the bound source file and the program analysis,
        exactly as ``analyze_program(parse_and_bind(source), ...)`` would.

        The stages run in one fixed order (:meth:`_walk`), and the walk
        ends with a ``graph`` progress event saying where the inputs
        moved since the last completed walk.
        """

        stats = self.stats
        stats.begin_analysis()
        with stats.timer("total"):
            asserts = {
                name.lower(): tuple(texts)
                for name, texts in (assertions or {}).items()
                if texts
            }
            prog_key = None
            if self._store is not None:
                prog_key = self._store.program_key(
                    self.features, source, asserts
                )
                if self._last is None:
                    self._load_program_state(prog_key, asserts)
                self._absorb_memo_deltas()
            run = _Run(source=source, asserts=asserts)
            self._walk(run)
            self._last = _ProgramState(
                run.revs, run.callee_sets, run.caller_sets
            )
            memo = self._shared_memo
            stats.counters["memo.shared_hits"] = memo.hits
            stats.counters["memo.shared_misses"] = memo.misses
            if self._store is not None:
                self._spill_state(prog_key, run)
                self._spill_unit_summaries(run)
                self._export_memo_deltas()
        return run.sf, run.pa

    def _walk(self, run: _Run) -> None:
        """Run the stages in their one order: split, parse, callgraph,
        the summary stages the features enable (modref, kill, sections,
        ipconst), dependence.  Every enabled stage runs on every walk;
        its own caches (per-span parse, per-unit summaries and
        dependence entries) decide what it recomputes.

        The closing ``graph`` event depends only on the inputs: its
        ``entry`` is ``split`` for a new source or a cold engine (every
        enabled stage counted recomputed), ``dependence``
        when only the assertions moved (that one stage recomputed) and
        ``None`` for an identical rerun (none recomputed).
        """

        f = self.features
        modref, kill = f.needs_modref(), f.needs_kills()
        with self.stats.timer("split"):
            run.spans = self._split(run.source)
        self._emit_progress("split", spans=len(run.spans))
        self._stage_parse(run)
        self._stage_callgraph(run)
        if modref:
            self._stage_modref(run)
        if kill:
            self._stage_kill(run)
        if f.sections:
            self._stage_sections(run)
        if f.ip_constants:
            with self.stats.timer("ipconst"):
                self._update_ip_constants(run)
        run.pa = self._run_dependence(run.sf, run.cg, run.asserts, run.revs)

        # split, parse, callgraph and dependence always run.
        stages = 4 + sum(map(bool, (modref, kill, f.sections, f.ip_constants)))
        inputs = (run.source, tuple(sorted(run.asserts.items())))
        last = self._last_inputs
        if last is None or last[0] != inputs[0]:
            entry, recomputed = "split", stages
        elif last[1] != inputs[1]:
            entry, recomputed = "dependence", 1
        else:
            entry, recomputed = None, 0
        self._last_inputs = inputs
        self._emit_progress(
            "graph",
            entry=entry,
            hits=stages - recomputed,
            recomputed=recomputed,
        )

    # ------------------------------------------------------------------
    # stages, in walk order
    # ------------------------------------------------------------------

    def _split(self, source: str) -> List[UnitSpan]:
        """``source``'s unit spans, from the last-two-splits memo when
        it holds them.  Otherwise the most recent split is spliced: only
        the spans around the lines that differ from it are split again,
        and of those only spans the parse cache lacks are lexed.  A
        split that raises is not remembered."""

        spans = self._splits.pop(source, None)
        if spans is None:
            previous = next(reversed(self._splits.items()), None)
            spans = split_units(source, known=self._spans, previous=previous)
        self._splits[source] = spans
        if len(self._splits) > 2:
            del self._splits[next(iter(self._splits))]
        return spans

    def parse(self, source: str) -> SourceFile:
        """``source`` split, parsed and bound, without analyzing it.

        Runs the walk's split and parse stages and raises the same
        front-end errors a walk would.
        It emits no progress and writes nothing to the store, and the
        next walk detects changes against the last *walk*, so any
        number of parses between two walks cost that walk nothing
        extra: it is the walk an edit spanning all of them would run.
        """

        run = _Run(source=source, asserts={})
        progress, self.progress = self.progress, None
        try:
            with self.stats.timer("split"):
                run.spans = self._split(source)
            self._stage_parse(run)
        finally:
            self.progress = progress
        return run.sf

    def _stage_parse(self, run: _Run) -> None:
        entries = self._parse_and_bind(run.spans)
        for entry in entries:
            self._spans[entry.digest] = entry
        self._trim_span_cache(entries)
        run.entries = entries
        run.sf = SourceFile([u for e in entries for u in e.units])

    def _stage_callgraph(self, run: _Run) -> None:
        with self.stats.timer("callgraph"):
            for entry in run.entries:
                if entry.candidates is None:
                    entry.candidates = [
                        _collect_candidates(u) for u in entry.units
                    ]
            run.cg = self._assemble_callgraph(run.entries)
        self._emit_progress(
            "callgraph", units=len(run.cg.units), sites=len(run.cg.sites)
        )
        run.revs = {
            u.name: e.rev for e in run.entries for u in e.units
        }
        cg = run.cg
        run.callee_sets = {n: tuple(sorted(cg.callees[n])) for n in cg.units}
        run.caller_sets = {n: tuple(sorted(cg.callers[n])) for n in cg.units}
        run.changed = self._detect_changes(run)
        if self._dep_stale is not None:
            self._dep_stale |= run.changed
        # Content keys for per-unit summary records: a cold open of a
        # never-seen program warm-starts any unit whose key (span digest
        # + callee subtree) matches a prior session's.
        if self._store is not None:
            run.ukeys = self._unit_summary_keys(run)

    def _stage_modref(self, run: _Run) -> None:
        with self.stats.timer("modref"):
            self._update_bottom_up(
                "modref",
                run,
                local_summary,
                lambda a, b: a.mod == b.mod and a.ref == b.ref,
                ModRefInfo,
                warm=self._warm_lookup(run, "modref"),
            )

    def _stage_kill(self, run: _Run) -> None:
        with self.stats.timer("kill"):
            recomputed = self._update_bottom_up(
                "kill",
                run,
                unit_kills,
                lambda a, b: a.scalars == b.scalars
                and a.arrays == b.arrays,
                KillInfo,
                warm=self._warm_lookup(run, "kill"),
            )
            if recomputed:
                kills = self._summaries["kill"]
                views = self._kill_views = dict(self._kill_views)
                for n, view in kills_view(
                    {n: kills[n] for n in recomputed}, self.features
                ).items():
                    views[n] = view

    def _stage_sections(self, run: _Run) -> None:
        with self.stats.timer("sections"):
            self._update_bottom_up(
                "sections",
                run,
                unit_sections,
                lambda a, b: not sections_differ(a, b),
                SectionInfo,
                max_passes=10,
                warm=self._warm_lookup(run, "sections"),
            )

    # ------------------------------------------------------------------
    # stage: parse + bind
    # ------------------------------------------------------------------

    def _parse_and_bind(self, spans: List[UnitSpan]) -> List[_SpanEntry]:
        entries: List[Optional[_SpanEntry]] = [None] * len(spans)
        to_parse: List[int] = []
        hits = 0
        with self.stats.timer("parse"):
            for i, span in enumerate(spans):
                entry = self._spans.get(span.digest)
                if entry is not None and entry.start != span.start_line:
                    # An entry an earlier span of this walk took starts
                    # at that span: a repeated text is parsed apart.
                    j = bisect_left(
                        spans, entry.start, 0, i, key=lambda s: s.start_line
                    )
                    if j < i and entries[j] is entry:
                        entry = None
                    else:
                        self._relocate(entry, span.start_line)
                if entry is not None:
                    hits += 1
                    entries[i] = entry
                    continue
                self.stats.miss("parse")
                if self._store is not None:
                    record = self._store.load_span(span.digest)
                    if record is not None:
                        start, units = record
                        entry = _SpanEntry(
                            span.digest, start, self._new_rev(), list(units)
                        )
                        self._relocate(entry, span.start_line)
                        entries[i] = entry
                        self.stats.bump("disk.span_warm")
                        continue
                to_parse.append(i)
            if hits:
                self.stats.hit("parse", hits)
            parsed = [pool.run_task("parse", spans[i]) for i in to_parse]
            fresh: List[_SpanEntry] = []
            for i, units in zip(to_parse, parsed):
                span = spans[i]
                entry = _SpanEntry(
                    span.digest, span.start_line, self._new_rev(), units
                )
                entries[i] = entry
                fresh.append(entry)
        self._emit_progress(
            "parse",
            parsed=len(to_parse),
            reused=len(spans) - len(to_parse),
        )
        # Binding runs after every parse, so a parse error in any span
        # surfaces before a bind error in another.
        if fresh:
            with self.stats.timer("bind"):
                binder = Binder()
                for entry in fresh:
                    for unit in entry.units:
                        binder.bind_unit(unit)
        # Fresh entries enter the span cache only in _stage_parse, after
        # the whole parse+bind stage succeeded: a bind error mid-way must
        # not leave half-bound units behind for the rollback reanalysis.
        return entries  # type: ignore[return-value]

    def _relocate(self, entry: _SpanEntry, start: int) -> None:
        """Move ``entry``'s units to ``start``, and with them the
        dependence entry computed from each (its key holds the entry's
        parse revision): both then hold what a parse of the span at
        ``start`` and its analysis would.  The revision stays, so the
        units' summaries, constant folds and dependence keys stay valid.
        """

        delta = start - entry.start
        if not delta:
            return
        entry.start = start
        for unit in entry.units:
            shift_lines(unit, delta)
        for name in {u.name for u in entry.units}:
            dep = self._deps.get(name)
            if dep is not None and dep.key[0] == entry.rev:
                _relocate_dep(dep, delta)

    def _trim_span_cache(self, active: List[_SpanEntry]) -> None:
        if len(self._spans) <= self.SPAN_CACHE_LIMIT:
            return
        keep = {e.digest for e in active}
        for digest in list(self._spans):
            if len(self._spans) <= self.SPAN_CACHE_LIMIT:
                break
            if digest not in keep:
                del self._spans[digest]

    # ------------------------------------------------------------------
    # stage: call graph
    # ------------------------------------------------------------------

    def _assemble_callgraph(self, entries: List[_SpanEntry]) -> CallGraph:
        cg = CallGraph()
        for entry in entries:
            for unit in entry.units:
                cg.units[unit.name] = unit
                cg.callees.setdefault(unit.name, set())
                cg.callers.setdefault(unit.name, set())
        for entry in entries:
            for unit, cands in zip(entry.units, entry.candidates or ()):
                for cand in cands:
                    if cand.callee not in cg.units:
                        continue
                    cg.sites.append(
                        CallSite(
                            unit.name,
                            cand.callee,
                            cand.stmt.sid,
                            list(cand.call.args),  # type: ignore[union-attr]
                            cand.call.line,  # type: ignore[union-attr]
                            is_function=cand.is_function,
                        )
                    )
                    cg.callees[unit.name].add(cand.callee)
                    cg.callers[cand.callee].add(unit.name)
        return cg

    def _detect_changes(self, run: _Run) -> Set[str]:
        prev = self._last
        current = run.cg.units
        if prev is None or prev.revs.keys() != current.keys():
            self._drop_units_not_in(current)
        if prev is None:
            return set(current)
        return {
            n
            for n in current
            if prev.revs.get(n) != run.revs[n]
            or prev.callee_sets.get(n) != run.callee_sets[n]
            or prev.caller_sets.get(n) != run.caller_sets[n]
        }

    def _drop_units_not_in(self, current) -> None:
        """Forget cached results of units the program no longer has
        (summary dicts are replaced, never edited: analyses handed out
        hold them)."""

        for phase in _PHASES:
            cache = self._summaries[phase]
            if any(n not in current for n in cache):
                self._summaries[phase] = {
                    n: v for n, v in cache.items() if n in current
                }
                revs = self._summary_revs[phase]
                for n in [n for n in revs if n not in current]:
                    del revs[n]
        self._kill_views = {
            n: v for n, v in self._kill_views.items() if n in current
        }
        for memo in (self._deps, self._const_maps):
            for n in [n for n in memo if n not in current]:
                del memo[n]

    # ------------------------------------------------------------------
    # stage: interprocedural summaries
    # ------------------------------------------------------------------

    def _summary_schedule(self, run: _Run) -> List[Tuple[List[str], bool]]:
        """:func:`_scc_schedule` of this walk's call graph, kept from the
        walk before while the unit order and every callee set are the
        same (an edit inside a routine's body changes neither)."""

        shape = (tuple(run.callee_sets), run.callee_sets)
        if self._schedule is None or self._schedule[0] != shape:
            self._schedule = (shape, _scc_schedule(run.cg))
        return self._schedule[1]

    def _update_bottom_up(
        self,
        phase: str,
        run: _Run,
        step,
        equal,
        default,
        max_passes: Optional[int] = None,
        warm: Optional[Callable[[str], Optional[object]]] = None,
    ) -> List[str]:
        """Re-run one bottom-up summary fixpoint with early cutoff.

        The SCC schedule is walked callees-first.  A unit is *stale*
        when it is in ``changed``, has no cached value, or one of its
        callees outside its own group got a value in this walk that is
        not ``equal`` to the cached one.  Only stale units recompute: a
        non-recursive batch steps just its stale members, and a
        recursive SCC with any stale member is reseeded with empty
        summaries (matching the from-scratch seeds) and iterated whole.
        Every other unit keeps its cached value, so a recomputation that
        reproduces the old value stops the cascade right there.  This is
        sound because a step reads only its unit's own AST and call
        sites plus its callees' summaries (the section summary carries
        the formal signature call sites bind through).

        ``warm(name)`` returns a disk-restored value for a stale unit,
        or ``None``: content-addressed on the unit's span plus its
        callee subtree, such a value *is* what the step function would
        compute, so a warm unit skips computation while keeping the
        rev-bump and miss accounting of a recomputed one.

        Returns the recomputed units and adds them to
        ``run.summarized``.  A unit whose value moved makes its callers'
        dependence keys stale.
        """

        cg, changed = run.cg, run.changed
        cache = self._summaries[phase]
        revs = self._summary_revs[phase]
        work = dict(cache)
        moved: Set[str] = set()  # recomputed to a value unlike the cache
        recomputed: List[str] = []
        for group, recursive in self._summary_schedule(run):
            members = set(group)
            stale = [
                n
                for n in group
                if n in changed
                or n not in cache
                or any(
                    c in moved and c not in members
                    for c in cg.callees.get(n, ())
                )
            ]
            if not stale:
                continue
            if not recursive:
                # Same-level, non-recursive units: their callees are
                # final and they cannot read each other's summaries, so
                # one step call per unit *is* its fixpoint.
                for n in stale:
                    value = warm(n) if warm is not None else None
                    if value is None:
                        value = pool.run_task(
                            "summary", (step, cg.units[n], cg, work)
                        )
                    work[n] = value
            else:
                stale = group
                for n in group:
                    work[n] = default()
                scc_changed = True
                passes = 0
                while scc_changed and (
                    max_passes is None or passes < max_passes
                ):
                    scc_changed = False
                    passes += 1
                    for n in group:
                        new = pool.run_task(
                            "summary", (step, cg.units[n], cg, work)
                        )
                        if not equal(new, work[n]):
                            work[n] = new
                            scc_changed = True
            for n in stale:
                if n not in cache or not equal(work[n], cache[n]):
                    moved.add(n)
            recomputed.extend(stale)
        if recomputed:
            cache = self._summaries[phase] = dict(cache)
            run.summarized.update(recomputed)
        for n in recomputed:
            if n in moved:
                revs[n] = revs.get(n, 0) + 1
                if self._dep_stale is not None:
                    self._dep_stale |= cg.callers[n]
            cache[n] = work[n]
        self.stats.miss(phase, len(recomputed))
        self.stats.hit(phase, len(cg.units) - len(recomputed))
        self._emit_progress(phase, dirty=len(recomputed), units=len(cg.units))
        return recomputed

    def _update_ip_constants(self, run: _Run) -> None:
        """Top-down counterpart: constants flow caller → callee, so the
        dirty region closes over callees; clean callers contribute their
        cached (already folded) environments.

        A caller's fold (``propagate_constants``) is a function of its
        parse revision and its inherited constants, so it is kept under
        that pair: an edit inside a callee re-folds no caller whose text
        and constants stayed put, while an edit that moves a caller's
        constants (its own ``parameter`` or a call into it) does."""

        cg = run.cg
        cache = self._summaries["ipconst"]
        revs = self._summary_revs["ipconst"]
        dirty = _closure(run.changed, cg.callees)
        self.stats.miss("ipconst", len(dirty))
        self.stats.hit("ipconst", len(cg.units) - len(dirty))
        self._emit_progress(
            "ipconst", dirty=len(dirty), units=len(cg.units)
        )
        if not dirty:
            return
        targets = {n for n in dirty if cg.callers.get(n)}  # roots inherit nothing
        callers_needed = set().union(*(cg.callers[n] for n in targets))
        inherited = {n: cache.get(n, {}) for n in callers_needed}
        for n in dirty:
            inherited[n] = {}
        # A caller's folded environment depends only on its inherited
        # constants, which move only for targets: fold every caller
        # once, then refold just the targets whose constants moved.
        const_maps = {}
        refold = callers_needed
        for _ in range(5):  # same Jacobi bound as compute_ip_constants
            for c in refold:
                const_maps[c] = self._fold(
                    c, cg.units[c], run.revs[c], inherited[c]
                )
            proposals = gather_site_proposals(cg, const_maps, targets=targets)
            moved = set()
            for n in targets:
                new = resolve_slot(proposals[n])
                if new != inherited[n]:
                    inherited[n] = new
                    moved.add(n)
            if not moved:
                break
            refold = moved & callers_needed
        cache = self._summaries["ipconst"] = dict(cache)
        for n in dirty:
            if n not in cache or inherited[n] != cache[n]:
                revs[n] = revs.get(n, 0) + 1
                if self._dep_stale is not None:
                    self._dep_stale.add(n)
            cache[n] = inherited[n]

    def _fold(
        self, name: str, unit: ProcedureUnit, rev: int, inherited: Dict
    ):
        """``propagate_constants(unit, inherited=inherited)``, kept per
        unit under ``(rev, inherited)``."""

        key = (rev, tuple(sorted(inherited.items())))
        held = self._const_maps.get(name)
        if held is not None and held[0] == key:
            return held[1]
        folded = propagate_constants(unit, inherited=inherited)
        self._const_maps[name] = (key, folded)
        return folded

    # ------------------------------------------------------------------
    # stage: per-unit dependence analysis
    # ------------------------------------------------------------------

    def _run_dependence(
        self,
        sf: SourceFile,
        cg: CallGraph,
        asserts: Dict[str, tuple],
        revs: Dict[str, int],
    ) -> ProgramAnalysis:
        """Per-unit dependence analysis: cache walk plus one batch.

        A unit's cache key is rebuilt only when one of its inputs may have
        moved since the last dependence stage: its span was reparsed or
        its call edges changed, its assertion texts or inherited
        constants changed, or a callee's summary got a new revision
        (the summary phases collect these in ``_dep_stale``).  Every
        other unit is a hit without building its key.  A hit's pristine
        edge markings and verdicts are restored only if a session
        reported changing them (:meth:`note_mutated`).

        Misses are collected and analyzed in call-graph order, with the
        providers built once over the walk's call graph and the engine's
        summary dicts; each analysis reads the program's own unit AST,
        so cached analyses alias the program AST.

        The analysis holds the engine's summary dicts themselves, not
        copies: the engine replaces a summary dict whenever it changes
        one, so a handed-out analysis never sees a later walk.
        """

        feats = self.features
        stats = self.stats
        kv = self._kill_views
        modref = self._summaries["modref"]
        sections = self._summaries["sections"]
        constants = self._summaries["ipconst"]
        pa = ProgramAnalysis(
            sf,
            feats,
            cg,
            modref=modref,  # type: ignore[arg-type]
            sections=sections,  # type: ignore[arg-type]
            kills=kv,
            ip_constants=constants,
        )
        stale = self._dep_stale
        if stale is not None:
            before = self._dep_asserts
            stale = stale | {
                n
                for n in before.keys() | asserts.keys()
                if before.get(n) != asserts.get(n)
            }
        refreshed: Set[str] = set()
        hits = 0
        with stats.timer("dependence"):
            misses: List[Tuple[str, tuple]] = []
            for name in cg.units:
                cached = self._deps.get(name)
                if stale is None or name in stale or cached is None:
                    key = _dep_key(
                        revs[name],
                        asserts.get(name, ()),
                        constants.get(name, {}),
                        cg.callees[name],
                        self._summary_revs,
                    )
                    if cached is None or cached.key != key:
                        stats.miss("dependence")
                        misses.append((name, key))
                        continue
                hits += 1
                if name in self._mutated:
                    _restore_pristine(cached)
                    refreshed.add(name)
                pa.units[name] = cached.ua
            if hits:
                stats.hit("dependence", hits)
            if misses:
                providers = build_providers(cg, feats, modref, sections, kv)
                analyses = []
                for name, _key in misses:
                    config = unit_config(
                        name,
                        feats,
                        providers,
                        constants,
                        _oracle(asserts.get(name, ())),
                        shared_memo=self._shared_memo,
                    )
                    analyses.append(
                        pool.run_task("dep", (cg.units[name], config))
                    )
                for (name, key), ua in zip(misses, analyses):
                    self._emit_progress("dependence", unit=name)
                    # Per-tier wall time (``--profile``): the tester's
                    # timings surface as stats counters, so tier costs
                    # land in ``stats``.
                    tier_s = ua.tester.tier_seconds
                    if tier_s:
                        for tier, secs in tier_s.items():
                            stats.bump(f"tier.{tier}_s", secs)
                    if ua.pair_seconds:
                        stats.bump("dep.pair_s", ua.pair_seconds)
                    if ua.build_seconds:
                        stats.bump("dep.build_s", ua.build_seconds)
                    self._deps[name] = _DepEntry(
                        key,
                        ua,
                        ua.graph.marking_snapshot(),
                        {
                            sid: (list(info.obstacles), info.parallelizable)
                            for sid, info in ua.loop_info.items()
                        },
                    )
                    pa.units[name] = ua
                    refreshed.add(name)
        self._dep_stale = set()
        self._dep_asserts = asserts
        self._mutated = set()
        self.refreshed = refreshed
        return pa

    # ------------------------------------------------------------------
    # stage: persistence (warm starts)
    # ------------------------------------------------------------------

    def _load_program_state(
        self, key: str, asserts: Dict[str, tuple]
    ) -> bool:
        """Try to assemble the engine's cache state from the program
        manifest and the unit records it names.

        Only attempted on a cold engine (``_last is None``); success makes
        the following pipeline walk hit every cache.  Each unit record
        pickles one span's units with their summaries and dependence
        entries, so a restored entry aliases its own span's ASTs.  The
        records are read first: their summaries fill the summary caches,
        and only then is every restored entry's dependence key rebuilt,
        because it needs the inherited constants.  The manifest's
        revisions become this engine's and enter those keys, whichever
        engine wrote the record.  A restored entry keeps the start line
        its record was written at: the walk that follows relocates it to
        its span's start, as it does any moved hit, so the manifest
        needs no line of its own.  A missing or invalid manifest or
        record, or a record whose span digest disagrees with the
        manifest, leaves the engine cold (with one log line).
        """

        state = self._store.load_program(key)
        if state is None:
            return False
        try:
            summary_revs = state["summary_revs"]
            last = state["last"]
            rev_next = int(state["rev_next"])
            if not all(p in summary_revs for p in _PHASES):
                raise ValueError("missing summary phase")
            summaries: Dict[str, Dict[str, object]] = {p: {} for p in _PHASES}
            records = []
            for digest, rev, record_key in state["spans"]:
                record = self._store.load_unit_record(record_key)
                if record is None:
                    raise ValueError(f"unit record {record_key} unreadable")
                if record["digest"] != digest:
                    raise ValueError(f"unit record {record_key}: wrong span")
                for name, values in record["summaries"].items():
                    for phase, value in values.items():
                        summaries[phase][name] = value
                records.append((digest, rev, record_key, record))
            constants = summaries["ipconst"]
            spans: Dict[str, _SpanEntry] = {}
            deps: Dict[str, _DepEntry] = {}
            for digest, rev, record_key, record in records:
                units = list(record["units"])
                for unit in units:
                    name = unit.name
                    ua, markings, verdicts = record["deps"][name]
                    deps[name] = _DepEntry(
                        _dep_key(
                            rev,
                            asserts.get(name, ()),
                            constants.get(name, {}),
                            last.callee_sets[name],
                            summary_revs,
                        ),
                        ua,
                        markings,
                        verdicts,
                        record_key,
                    )
                spans[digest] = _SpanEntry(
                    digest, record["start"], rev, units, record["candidates"]
                )
        except Exception as exc:  # noqa: BLE001 — stay cold on bad record
            log.warning(
                "ignoring program manifest %s (%s); analyzing cold",
                key[:12],
                exc,
            )
            self.stats.bump("disk.error")
            return False
        self._spans = spans
        self._summaries = summaries
        self._summary_revs = {p: dict(summary_revs[p]) for p in _PHASES}
        self._deps = deps
        self._last = last
        self._rev_next = max(rev_next, self._rev_next)
        self._reset_walk_memos()
        self._kill_views = kills_view(self._summaries["kill"], self.features)
        self._spilled_spans.update(spans)
        self.stats.bump("disk.warm_start")
        return True

    def _spill_state(self, prog_key: str, run: _Run) -> None:
        """Persist what this analysis changed: span records, one unit
        record per span whose units the walk refreshed, and the manifest.

        Span records warm up *partial* overlaps (an edited file reuses
        every untouched span).  A unit record holds the span's units
        with their summaries (``{unit: {phase: value}}``) and dependence
        entries.  A span needs a new one only when one of its dependence
        entries is in none yet, which holds for exactly the entries the
        walk computed afresh; a reused or restored entry stays in the
        record it was first written to, so a callee edit does not
        rewrite its callers' records.  That record's summaries are still
        the current ones: a unit whose summary moves gets a fresh
        dependence entry, because its span, a callee's summary revision
        or its inherited constants moved.  The manifest — spans,
        summary revisions and the change-detection baseline — warms up
        an exact reopen (source, features and assertions all
        unchanged); it is written only when every span's record is on
        disk.
        """

        store = self._store
        spans = []
        for entry in run.entries:
            if entry.digest not in self._spilled_spans:
                if store.save_span(entry.digest, entry.start, entry.units):
                    self._spilled_spans.add(entry.digest)
            deps = [self._deps[u.name] for u in entry.units]
            held = {d.record for d in deps}
            record = held.pop() if len(held) == 1 else None
            if record is None:
                record = self._unit_record_key(entry, run, prog_key)
                payload = {
                    "digest": entry.digest,
                    "start": entry.start,
                    "units": entry.units,
                    "candidates": entry.candidates,
                    "summaries": {
                        u.name: {
                            p: values[u.name]
                            for p, values in self._summaries.items()
                            if u.name in values
                        }
                        for u in entry.units
                    },
                    "deps": {
                        u.name: (d.ua, d.markings, d.verdicts)
                        for u, d in zip(entry.units, deps)
                    },
                }
                if not store.save_unit_record(record, payload):
                    record = None
                for d in deps:
                    d.record = record
            spans.append((entry.digest, entry.rev, record))
        if all(r is not None for _, _, r in spans) and not store.has_program(
            prog_key
        ):
            store.save_program(
                prog_key,
                {
                    "spans": spans,
                    "summary_revs": self._summary_revs,
                    "last": self._last,
                    "rev_next": self._rev_next,
                },
            )

    def _unit_record_key(
        self, entry: _SpanEntry, run: _Run, prog_key: str
    ) -> str:
        """The content key of a span's unit record: the span digest and,
        per unit, everything its dependence entry was computed from —
        its summary key (features, span and callee subtree), inherited
        constants and assertion texts.  A unit in a recursive SCC has no
        summary key, so its record is keyed on the whole program."""

        constants = self._summaries["ipconst"]
        h = hashlib.sha1(entry.digest.encode())
        for unit in entry.units:
            name = unit.name
            ukey = run.ukeys.get(name) or f"prog:{prog_key}"
            inherited = sorted(constants.get(name, {}).items())
            h.update(f"\x00{name}\x00{ukey}\x00{inherited!r}".encode())
            for text in run.asserts.get(name, ()):
                h.update(b"\x01")
                h.update(text.encode())
        return h.hexdigest()

    # -- shared pair-test memo: the store's segments --------------------

    def _absorb_memo_deltas(self) -> None:
        """Fold in the memo segments other processes wrote since the
        store last looked (``memo.delta_absorbed``).

        Runs at the top of every analysis.  Absorbing more verdicts can
        never change results — every entry is fully content-addressed —
        it only replays work a sibling already did.
        """

        memo = self._shared_memo
        fresh = {
            k: v
            for k, v in self._store.load_memo().items()
            if k not in memo.entries
        }
        if fresh:
            memo.absorb(fresh)
            self._store_stats().bump("memo.delta_absorbed", len(fresh))
            if not self._memo_loaded:
                self.stats.bump("disk.memo_warm")
        self._memo_loaded = True

    def _export_memo_deltas(self) -> None:
        """Write the entries proved since the store's last write as one
        new segment (``memo.delta_exported``)."""

        exported = self._store.save_memo(self._shared_memo.entries)
        if exported:
            self._store_stats().bump("memo.delta_exported", exported)
        for stats in (self.stats, self._store_stats()):
            stats.counters["memo.persisted_entries"] = self._store.memo_entries

    # -- per-unit summary records ---------------------------------------

    def _unit_summary_keys(self, run: _Run) -> Dict[str, Optional[str]]:
        """Recursive content key per unit, callees-first.

        A unit's key digests the feature set, its name, its span digest
        and its (sorted) callees' keys — everything its bottom-up
        summaries are a function of.  Members of recursive SCCs get
        ``None`` (their summaries are fixpoints over the whole cycle,
        not per-unit content), and ``None`` poisons every caller above.
        """

        cg = run.cg
        digests = {u.name: e.digest for e in run.entries for u in e.units}
        feats = features_digest(self.features)
        keys: Dict[str, Optional[str]] = {}
        for group, recursive in self._summary_schedule(run):
            if recursive:
                for n in group:
                    keys[n] = None
                continue
            for n in group:
                parts = [feats, n, digests[n]]
                poisoned = False
                for callee in sorted(cg.callees.get(n, ())):
                    ck = keys.get(callee)
                    if ck is None:
                        poisoned = True
                        break
                    parts.append(callee)
                    parts.append(ck)
                if poisoned:
                    keys[n] = None
                    continue
                keys[n] = hashlib.sha1(
                    "\x00".join(parts).encode()
                ).hexdigest()
        return keys

    def _warm_lookup(
        self, run: _Run, phase: str
    ) -> Optional[Callable[[str], Optional[object]]]:
        """``name -> value`` restoring ``phase`` summaries from disk, or
        ``None`` without a store.

        Called only for units about to be recomputed (in-memory caches
        cover the rest); each unit's record is read once per walk, on
        first demand, and serves every phase.
        """

        if self._store is None:
            return None

        def lookup(name: str):
            values = run.warm.get(name)
            if values is None:
                values = run.warm[name] = self._load_unit_summary(
                    run.ukeys.get(name)
                )
            return values.get(phase)

        return lookup

    def _load_unit_summary(self, key: Optional[str]) -> Dict[str, object]:
        """One unit's disk-restored ``{phase: value}`` (empty on a miss
        or for a unit without a content key)."""

        if key is None:
            return {}
        values = self._store.load_unit_summary(key)
        if values:
            self.stats.bump("disk.usum_hit")
            return values
        self.stats.bump("disk.usum_miss")
        return {}

    def _spill_unit_summaries(self, run: _Run) -> None:
        """Write a ``usum`` record for each unit whose summaries this
        walk recomputed or restored (``run.summarized``).

        An ancestor whose content key moved while early cutoff kept its
        values gets none: a later lookup of that key misses and
        recomputes, as any cache miss does.
        """

        feats = self.features
        phases = []
        if feats.needs_modref():
            phases.append("modref")
        if feats.needs_kills():
            phases.append("kill")
        if feats.sections:
            phases.append("sections")
        if not phases:
            return
        for n, key in run.ukeys.items():
            if (
                n not in run.summarized
                or key is None
                or key in self._spilled_usums
            ):
                continue
            values = {
                p: self._summaries[p][n]
                for p in phases
                if n in self._summaries[p]
            }
            if len(values) != len(phases):
                continue
            self._store.save_unit_summary(key, values)
            self._spilled_usums.add(key)


def _dep_key(
    rev: int,
    asserts: tuple,
    constants: Dict,
    callees,
    summary_revs: Dict[str, Dict[str, int]],
) -> tuple:
    """A dependence entry's cache key: the unit's parse revision, its
    assertion texts and inherited constants, and its callees' MOD/REF,
    kill and section summary revisions."""

    mr, kr, sr = (summary_revs[p] for p in ("modref", "kill", "sections"))
    return (
        rev,
        asserts,
        tuple(sorted(constants.items())),
        tuple(
            sorted(
                (c, mr.get(c, 0), kr.get(c, 0), sr.get(c, 0)) for c in callees
            )
        ),
    )


def _oracle(texts: tuple) -> Optional[AssertionDB]:
    """One unit's assertion oracle, ``None`` when it has no assertions."""

    if not texts:
        return None
    oracle = AssertionDB()
    for text in texts:
        oracle.add(text)
    return oracle


def _restore_pristine(entry: _DepEntry) -> None:
    """Undo session-side mutation (markings, verdicts) on a cached unit."""

    entry.ua.graph.restore_markings(entry.markings)
    for sid, (obstacles, parallelizable) in entry.verdicts.items():
        info = entry.ua.loop_info[sid]
        info.obstacles = list(obstacles)
        info.parallelizable = parallelizable


def _relocate_dep(entry: _DepEntry, delta: int) -> None:
    """Move a cached analysis whose unit moved ``delta`` lines: edge
    endpoints shift, and the obstacles that name a line are derived
    again from the moved AST, in the pristine verdicts too (the
    ``loop-carried`` ones name no line and stay)."""

    ua = entry.ua
    for dep in ua.graph.edges:  # ``LoopInfo.carried`` holds these too
        dep.src_line += delta
        dep.dst_line += delta
    for sid, info in ua.loop_info.items():
        structural = structural_obstacles(info.loop, ua.stmt_index)
        info.obstacles = _carried(info.obstacles) + structural
        obstacles, parallelizable = entry.verdicts[sid]
        entry.verdicts[sid] = (_carried(obstacles) + structural, parallelizable)


def _carried(obstacles: List[str]) -> List[str]:
    return [o for o in obstacles if o.startswith("loop-carried")]


def _collect_candidates(unit: ProcedureUnit) -> List[_CallCandidate]:
    """Every potential call site of ``unit``, in the exact order
    ``build_callgraph`` discovers them (CALL before function refs within
    a statement); resolution against the unit set happens at assembly."""

    out: List[_CallCandidate] = []
    for st in walk_statements(unit.body):
        if isinstance(st, CallStmt):
            out.append(_CallCandidate(st.name, st, st, False))
        for top in statement_exprs(st):
            for node in walk_expr(top):
                if isinstance(node, FuncRef) and not node.intrinsic:
                    out.append(_CallCandidate(node.name, st, node, True))
    return out
