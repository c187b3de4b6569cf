"""The incremental analysis engine: demand-driven, cached reanalysis.

Ped's defining property is *interactive* analysis — it reanalyzes after
every edit, assertion and transformation.  :class:`AnalysisEngine` makes
that cheap by owning the parse → interprocedural-summary → dependence
pipeline as keyed, cached stages:

* **Parse cache** — the source is split into per-unit spans
  (:mod:`repro.incremental.splitter`), spliced from the previous split
  so an edit re-reads only the spans around the lines it changed; each
  span is parsed on its own, padded with blank lines so statement
  numbering stays absolute, and the resulting unit is cached under the
  span's content digest.  An edit confined to one procedure reparses
  only that procedure.
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
reparse; marking changes never touch the engine at all.  Safety valves:
a change to the program's ``{unit: kind}`` map flushes everything (name
resolution in *unchanged* units can legitimately differ when a function
appears or disappears), and :meth:`AnalysisEngine.invalidate` must be
called after in-place AST mutation (transformations), since cached units
alias the session's AST.

The service layer plugs in at two seams:

* **Worker pool** — span parses, same-level summary steps and per-unit
  dependence analyses are dispatched through a
  :class:`~repro.service.pool.SerialPool` (inline, the default) or a
  :class:`~repro.service.pool.WorkerPool` (processes).  Dispatch order
  and merge order are fixed, and each task is a pure function of its
  payload, so results are structurally identical either way.  A unit
  analyzed in a worker comes back as a fresh object graph; the engine
  *adopts* the worker's AST as canonical (swapping it into the span
  entry and the call graph) so the invariant that cached analyses alias
  the program's AST keeps holding.
* **Persistent store** — with a :class:`~repro.service.persist.
  PersistentStore` attached, a cold engine first tries a whole-program
  warm start (every cache restored from one content-addressed record),
  parse misses fall back to per-span disk records (validated against
  the current unit-kind map before acceptance), and every analysis
  spills its results back.  Any invalid or corrupt record degrades to
  recomputation.

Known approximation: interprocedural constants iterate at most the same
five Jacobi rounds as the from-scratch pass, so on call chains deeper
than five the cached warm start can be *sharper* than a cold run; the
workload suite is well inside the bound (verified by the parity tests).
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..dependence.driver import HOT_PATH, UnitAnalysis
from ..dependence.hierarchy import SharedPairMemo
from ..fortran.ast_nodes import (
    CallStmt,
    FuncRef,
    ProcedureUnit,
    SourceFile,
    Stmt,
    statement_exprs,
    walk_expr,
    walk_statements,
)
from ..fortran.parser import parse_source
from ..fortran.symbols import Binder
from ..interproc.callgraph import CallGraph, CallSite
from ..interproc.ipconst import gather_site_proposals, resolve_slot
from ..interproc.ipkill import KillInfo, unit_kills
from ..interproc.modref import ModRefInfo, local_summary
from ..interproc.program import (
    FeatureSet,
    ProgramAnalysis,
    kills_view,
)
from ..interproc.sections import SectionInfo, sections_differ, unit_sections
from ..analysis.constants import propagate_constants
from ..pipeline.graph import PipelineGraph
from ..pipeline.nodes import NodeResult
from ..pipeline.program import build_program_graph
from ..service.pool import SerialPool
from ..service.persist import features_digest
from .fingerprint import content_key
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
    """Cached parse of one source span (usually exactly one unit).

    ``pending_guard`` is set on entries restored from a disk span
    record: ``(referenced_names, function_names)`` of the program the
    record was bound under.  Name resolution consults the global unit
    set only to ask "is this name a function unit?", so the entry is
    admissible in any program — including one never seen before — that
    answers identically for every recorded name; the engine checks that
    once every span is in hand, and accepted entries have it cleared.
    """

    digest: str
    rev: int
    units: List[ProcedureUnit]
    candidates: Optional[List[List[_CallCandidate]]] = None
    pending_guard: Optional[Tuple[frozenset, frozenset]] = None


@dataclass
class _DepEntry:
    """Cached per-unit dependence analysis plus its pristine mutable state."""

    key: tuple
    ua: UnitAnalysis
    markings: List[str]
    verdicts: Dict[int, Tuple[List[str], bool]]


@dataclass
class _ProgramState:
    """What the previous analyze saw — the baseline for change detection."""

    kinds: Dict[str, str]
    revs: Dict[str, int]
    callee_sets: Dict[str, tuple]
    caller_sets: Dict[str, tuple]


@dataclass
class _Run:
    """Mutable state of one pipeline walk, threaded through the node
    runners in graph-schedule order (each runner reads what upstream
    runners produced — the in-memory mirror of the declared edges)."""

    source: str
    asserts: Dict[str, tuple]
    spans: List[UnitSpan] = field(default_factory=list)
    entries: List[_SpanEntry] = field(default_factory=list)
    sf: Optional[SourceFile] = None
    kinds: Dict[str, str] = field(default_factory=dict)
    cg: Optional[CallGraph] = None
    owners: Dict[str, Tuple[_SpanEntry, int]] = field(default_factory=dict)
    revs: Dict[str, int] = field(default_factory=dict)
    callee_sets: Dict[str, tuple] = field(default_factory=dict)
    caller_sets: Dict[str, tuple] = field(default_factory=dict)
    changed: Set[str] = field(default_factory=set)
    ukeys: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Disk-restored ``{unit: {phase: value}}``, filled on first demand.
    warm: Dict[str, Dict[str, object]] = field(default_factory=dict)
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
    they form one parallel batch; recursive SCCs keep their serial
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


def _summary_payload(
    phase: str, name: str, cg: CallGraph, work: Dict[str, object]
) -> Dict[str, object]:
    """Everything one summary step needs, cut loose from the engine."""

    callees = sorted(cg.callees.get(name, ()))
    return {
        "phase": phase,
        "unit": cg.units[name],
        "callee_units": {c: cg.units[c] for c in callees},
        "sites": cg.sites_in(name),
        "summaries": {c: work[c] for c in callees if c in work},
    }


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
        pool=None,
        store=None,
        shared_memo: Optional[SharedPairMemo] = None,
    ) -> None:
        self.features = features or FeatureSet()
        self.stats = stats or EngineStats()
        self._pool = pool if pool is not None else SerialPool(stats=self.stats)
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
        #: Watermark for memo-delta exchange: the keys known to be in
        #: the store's singleton record.  Local entries outside this set
        #: are the delta the next export ships.
        self._memo_disk_keys: Set[tuple] = set()
        self._spilled_usums: Set[str] = set()
        #: Optional progress listener, ``callable(phase: str, detail:
        #: dict)``, invoked at every pipeline stage boundary (and once
        #: per unit in the dependence stage).  The session server routes
        #: this to ``analysis.progress`` events for streaming clients;
        #: emission is observation-only and never alters results.
        self.progress = None
        #: The pipeline-node graph this engine executes: stage order
        #: comes from the declared edges (topological schedule), not a
        #: hard-wired chain, and every node carries a content key.
        self.graph: PipelineGraph = build_program_graph()
        #: Node content keys of the previous analysis — the baseline
        #: for node-level hit/miss accounting and entry detection.
        self._node_keys: Dict[str, str] = {}
        #: Per-node outcome of the last :meth:`analyze` (see
        #: :meth:`node_report`).
        self._last_report: List[NodeResult] = []

    @property
    def pool(self):
        return self._pool

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
        """Where shared-store counters (memo deltas, leases) accumulate:
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
        engine, a flush and a disk warm start alike)."""

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

    def clear(self) -> None:
        """Forget every cached result (statistics are kept)."""

        self._spans.clear()
        self._splits.clear()
        # New dicts, not cleared ones: analyses handed out hold them.
        self._summaries = {p: {} for p in _PHASES}
        self._summary_revs = {p: {} for p in _PHASES}
        self._deps.clear()
        self._last = None
        self._node_keys = {}
        self._reset_walk_memos()

    def invalidate(self) -> None:
        """Alias for :meth:`clear`; call after mutating cached ASTs in
        place (transformations), which silently desynchronizes the
        content-keyed caches."""

        self.clear()

    def close(self) -> None:
        """Release the worker pool (if this engine owns processes)."""

        self._pool.close()

    def spans(self, source: str) -> List[UnitSpan]:
        """``source``'s unit spans: free for the last two sources
        analyzed, spliced from the last split otherwise."""

        return self._split(source)

    def changed_units(self, old_source: str, new_source: str) -> Set[str]:
        """Names of units whose span content differs between two
        sources — the invalidation hook the session host broadcasts
        from after a mutating operation.

        Purely a span-digest diff resolved through the parse cache.  The
        spans are read from the engine's last two splits (a session's
        engine walked ``old_source`` before and ``new_source`` just now),
        so the diff neither lexes nor parses anything; a source split
        longer ago is split again.  Digests the cache no longer holds
        (trimmed, never seen) are simply not attributable and contribute
        no names.
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

        Execution walks :attr:`graph` in schedule order: each node's
        content key (node name over its declared inputs' keys) is
        compared with the previous analysis to decide hit vs recomputed,
        and the first recomputed node is the run's *entry* — for an
        assertion-only change that is ``dependence``, with every upstream
        node a hit (counters ``node.<name>.hit``, ``graph.entry.<node>``).
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
                    self._load_program_state(prog_key)
                self._absorb_memo_deltas()
            run = _Run(source=source, asserts=asserts)
            self._walk_graph(run)
            self._last = _ProgramState(
                run.kinds, run.revs, run.callee_sets, run.caller_sets
            )
            memo = self._shared_memo
            stats.counters["memo.shared_hits"] = memo.hits
            stats.counters["memo.shared_misses"] = memo.misses
            if self._store is not None:
                self._spill_state(prog_key, run.entries, run.kinds)
                self._spill_unit_summaries(run.ukeys)
                self._export_memo_deltas()
        return run.sf, run.pa

    def _walk_graph(self, run: _Run) -> None:
        """Execute the analysis graph in schedule order.

        Every node's key digests its declared inputs' keys, so hit/miss
        falls out of pure key comparison against the previous walk; the
        runners themselves always execute — their internal fine-grained
        caches (per-span parse, per-unit summaries and dependence
        entries) make a node-level hit near-free, and running them
        unconditionally keeps results byte-identical to the classic
        chain.  Disabled nodes are skipped with a sentinel key, so a
        feature toggle shows up as a key change downstream.
        """

        stats = self.stats
        keys: Dict[str, str] = {
            "source": content_key("source", run.source),
            "assertions": content_key(
                "assertions", tuple(sorted(run.asserts.items()))
            ),
            "features": content_key(
                "features", features_digest(self.features)
            ),
        }
        runners = {
            "split": self._node_split,
            "parse": self._node_parse,
            "callgraph": self._node_callgraph,
            "modref": self._node_modref,
            "kill": self._node_kill,
            "sections": self._node_sections,
            "ipconst": self._node_ipconst,
            "dependence": self._node_dependence,
        }
        report: List[NodeResult] = []
        for name in self.graph.schedule():
            node = self.graph.nodes[name]
            if not node.is_enabled(self.features):
                keys[name] = content_key(name, "disabled")
                report.append(
                    NodeResult(name, keys[name], state="skipped")
                )
                continue
            key = node.key(tuple(keys[i] for i in node.inputs))
            # Decide hit/miss *before* running: the parse runner may
            # clear() on a unit-kind-map change, which honestly demotes
            # every later node of this walk to recomputed.
            state = (
                "hit" if self._node_keys.get(name) == key else "recomputed"
            )
            stats.bump(
                f"node.{name}.{'hit' if state == 'hit' else 'miss'}"
            )
            runners[name](run)
            keys[name] = key
            report.append(NodeResult(name, key, state=state))
        self._node_keys = {r.node: r.key for r in report}
        self._last_report = report
        entry = next(
            (r.node for r in report if r.state == "recomputed"), None
        )
        stats.bump(f"graph.entry.{entry or 'none'}")
        self._emit_progress(
            "graph",
            entry=entry,
            hits=sum(1 for r in report if r.state == "hit"),
            recomputed=sum(1 for r in report if r.state == "recomputed"),
        )

    def node_report(self) -> Dict:
        """The last analysis as node outcomes (the ``graph.last`` op):
        ``entry`` (first recomputed node, ``None`` for a pure replay)
        plus one ``{node, key, state}`` row per scheduled node."""

        entry = next(
            (
                r.node
                for r in self._last_report
                if r.state == "recomputed"
            ),
            None,
        )
        return {
            "entry": entry,
            "nodes": [r.describe() for r in self._last_report],
        }

    def plan(self, changed_inputs: Sequence[str]) -> Dict:
        """What *would* re-run if the named external inputs (or node
        outputs) changed — pure topology, no execution."""

        return {
            "entry": self.graph.entry_for(changed_inputs, self.features),
            "invalidated": sorted(
                self.graph.invalidated_by(changed_inputs, self.features)
            ),
        }

    # ------------------------------------------------------------------
    # node runners (one per graph node, in declaration order)
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

    def _node_split(self, run: _Run) -> None:
        with self.stats.timer("split"):
            run.spans = self._split(run.source)
        self._emit_progress("split", spans=len(run.spans))

    def _node_parse(self, run: _Run) -> None:
        entries, sf, kinds = self._assemble(run.spans)
        if self._last is not None and kinds != self._last.kinds:
            # The unit set (or a unit's kind) changed: name resolution
            # inside *unchanged* units can legitimately differ (array
            # reference vs function call, intrinsic shadowing), so
            # restart from a clean slate once.
            self._emit_progress(
                "invalidated", reason="unit-kind-map-changed"
            )
            self.clear()
            entries, sf, kinds = self._assemble(run.spans)
        for entry in entries:
            self._spans[entry.digest] = entry
        self._trim_span_cache(entries)
        run.entries, run.sf, run.kinds = entries, sf, kinds

    def _node_callgraph(self, run: _Run) -> None:
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
        # Which span entry (and slot) owns each unit — needed to adopt
        # ASTs analyzed in worker processes back as canonical.
        run.owners = {
            u.name: (entry, i)
            for entry in run.entries
            for i, u in enumerate(entry.units)
        }
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

    def _node_modref(self, run: _Run) -> None:
        with self.stats.timer("modref"):
            self._update_bottom_up(
                "modref",
                run,
                local_summary,
                lambda a, b: a.mod == b.mod and a.ref == b.ref,
                ModRefInfo,
                warm=self._warm_lookup(run, "modref"),
            )

    def _node_kill(self, run: _Run) -> None:
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

    def _node_sections(self, run: _Run) -> None:
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

    def _node_ipconst(self, run: _Run) -> None:
        with self.stats.timer("ipconst"):
            self._update_ip_constants(run)

    def _node_dependence(self, run: _Run) -> None:
        pa, adopted = self._run_dependence(
            run.sf, run.cg, run.asserts, run.revs, run.owners
        )
        if adopted:
            # Units analyzed in worker processes came back as fresh
            # object graphs and were swapped into their span entries;
            # rebuild the source file so sessions and cached analyses
            # alias the same ASTs.
            run.sf = SourceFile(
                [u for e in run.entries for u in e.units]
            )
            pa.source = run.sf
        run.pa = pa

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
                if entry is not None:
                    hits += 1
                    entries[i] = entry
                    continue
                self.stats.miss("parse")
                if self._store is not None:
                    record = self._store.load_span(span.digest)
                    if record is not None:
                        guard, units = record
                        entry = _SpanEntry(
                            span.digest, self._new_rev(), list(units)
                        )
                        # Admissible only if the current program agrees
                        # with the recorded binding guard on which
                        # referenced names are functions; checked by
                        # _assemble once every span is in hand.
                        entry.pending_guard = guard
                        self.stats.bump("disk.span_warm")
                        entries[i] = entry
                        continue
                to_parse.append(i)
            if hits:
                self.stats.hit("parse", hits)
            if to_parse:
                payloads = [
                    {
                        "start_line": spans[i].start_line,
                        "text": spans[i].text,
                    }
                    for i in to_parse
                ]
                fresh: List[_SpanEntry] = []
                for i, units in zip(
                    to_parse, self._pool.map("parse", payloads)
                ):
                    entry = _SpanEntry(
                        spans[i].digest, self._new_rev(), list(units)
                    )
                    entries[i] = entry
                    fresh.append(entry)
        self._emit_progress(
            "parse",
            parsed=len(to_parse),
            reused=len(spans) - len(to_parse),
        )
        if to_parse:
            sf = SourceFile([u for e in entries for u in e.units])
            with self.stats.timer("bind"):
                binder = Binder(sf)
                for entry in fresh:
                    for unit in entry.units:
                        binder.bind_unit(unit)
        # Fresh entries enter the span cache only in analyze(), after the
        # whole parse+bind stage succeeded: a bind error mid-way must not
        # leave half-bound units behind for the rollback reanalysis.
        return entries  # type: ignore[return-value]

    def _assemble(
        self, spans: List[UnitSpan]
    ) -> Tuple[List[_SpanEntry], SourceFile, Dict[str, str]]:
        """Parse/load every span, then vet disk-restored entries.

        A span record is only valid when the program it joins resolves
        the same referenced names to function units as the program it
        was bound under; any restored entry whose recorded guard
        disagrees with the program we actually assembled is discarded
        and reparsed fresh.
        """

        entries = self._parse_and_bind(spans)
        kinds = {u.name: u.kind for e in entries for u in e.units}
        stale = [
            i
            for i, e in enumerate(entries)
            if e.pending_guard is not None
            and not _guard_ok(e.pending_guard, kinds)
        ]
        if stale:
            log.warning(
                "discarding %d disk span record(s) bound under a "
                "different unit-kind map; reparsing",
                len(stale),
            )
            self.stats.bump("disk.span_rejected", len(stale))
            for i in stale:
                span = spans[i]
                padded = "\n" * (span.start_line - 1) + span.text
                sub = parse_source(padded)
                entries[i] = _SpanEntry(
                    span.digest, self._new_rev(), list(sub.units)
                )
            sf = SourceFile([u for e in entries for u in e.units])
            binder = Binder(sf)
            for i in stale:
                for unit in entries[i].units:
                    binder.bind_unit(unit)
            kinds = {u.name: u.kind for u in sf.units}
        for entry in entries:
            entry.pending_guard = None
        sf = SourceFile([u for e in entries for u in e.units])
        return entries, sf, kinds

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

        Returns the recomputed units.  A unit whose value moved makes
        its callers' dependence keys stale.
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
                # one step call per unit *is* its fixpoint — and the
                # whole batch fans out across the pool.
                live = []
                for n in stale:
                    value = warm(n) if warm is not None else None
                    if value is None:
                        live.append(n)
                    else:
                        work[n] = value
                payloads = [
                    _summary_payload(phase, n, cg, work) for n in live
                ]
                for n, new in zip(
                    live, self._pool.map("summary", payloads)
                ):
                    work[n] = new
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
                        new = step(cg.units[n], cg, work)
                        if not equal(new, work[n]):
                            work[n] = new
                            scc_changed = True
            for n in stale:
                if n not in cache or not equal(work[n], cache[n]):
                    moved.add(n)
            recomputed.extend(stale)
        if recomputed:
            cache = self._summaries[phase] = dict(cache)
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
        owners: Dict[str, Tuple[_SpanEntry, int]],
    ) -> Tuple[ProgramAnalysis, bool]:
        """Per-unit dependence analysis: cache walk plus one pooled batch.

        A unit's cache key is rebuilt only when one of its inputs may have
        moved since the last dependence stage: its span was reparsed or
        its call edges changed, its assertion texts or inherited
        constants changed, or a callee's summary got a new revision
        (the summary phases collect these in ``_dep_stale``).  Every
        other unit is a hit without building its key.  A hit's pristine
        edge markings and verdicts are restored only if a session
        reported changing them (:meth:`note_mutated`).

        Misses are collected and dispatched through the pool in call-graph
        order; each task payload is self-contained, so the per-unit result
        is identical inline or in a worker.  Units that came back from a
        worker process are *adopted*: the worker's AST copy replaces the
        span entry's (and the call graph's) unit, preserving the invariant
        that cached analyses alias the canonical program AST.  Returns the
        program analysis and whether any adoption happened (the caller
        then rebuilds the source file from the span entries).

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
        mr = self._summary_revs["modref"]
        kr = self._summary_revs["kill"]
        sr = self._summary_revs["sections"]
        adopted = False
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
                    key = (
                        revs[name],
                        asserts.get(name, ()),
                        tuple(sorted(constants.get(name, {}).items())),
                        tuple(
                            sorted(
                                (c, mr.get(c, 0), kr.get(c, 0), sr.get(c, 0))
                                for c in cg.callees[name]
                            )
                        ),
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
                memo = self._dep_memo()
                profile = HOT_PATH.profile_tiers
                payloads = []
                for name, _key in misses:
                    callees = sorted(cg.callees.get(name, ()))
                    payloads.append(
                        {
                            "unit": cg.units[name],
                            "profile": profile,
                            "callee_units": {
                                c: cg.units[c] for c in callees
                            },
                            "sites": cg.sites_in(name),
                            "modref": {
                                c: modref[c] for c in callees if c in modref
                            },
                            "sections": {
                                c: sections[c]
                                for c in callees
                                if c in sections
                            },
                            "kills": {
                                c: kv[c] for c in callees if c in kv
                            },
                            "constants": constants.get(name, {}),
                            "asserts": asserts.get(name, ()),
                            "features": feats,
                            "memo": memo,
                        }
                    )
                for (name, key), ua in zip(
                    misses, self._pool.map("dep", payloads)
                ):
                    self._emit_progress("dependence", unit=name)
                    # Per-tier wall time (``--profile``): the tester's
                    # timings surface as stats counters so batch-vs-
                    # scalar tier costs land in ``stats``/hotpath.json.
                    tier_s = ua.tester.tier_seconds
                    if tier_s:
                        for tier, secs in tier_s.items():
                            stats.bump(f"tier.{tier}_s", secs)
                    if ua.pair_seconds:
                        stats.bump("dep.pair_s", ua.pair_seconds)
                    if ua.build_seconds:
                        stats.bump("dep.build_s", ua.build_seconds)
                    export, ua.memo_export = ua.memo_export, None
                    if export is not None:
                        # Merge worker-proved entries (or, with the
                        # serial pool, the live memo's drained pending
                        # state) into the program-scoped memo.
                        self._shared_memo.absorb(export)
                    if ua.unit is not cg.units[name]:
                        # Worker-analyzed copy: make it the canonical AST.
                        entry, slot = owners[name]
                        entry.units[slot] = ua.unit
                        entry.candidates = None
                        cg.units[name] = ua.unit
                        adopted = True
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
        return pa, adopted

    def _dep_memo(self) -> Optional[SharedPairMemo]:
        """The memo to ship with dependence payloads, or ``None``.

        Worker pools pickle the payload per task; once the memo grows
        past :data:`SharedPairMemo.MAX_SHIP` entries the engine ships a
        fresh empty memo instead (workers still export their fresh
        entries, so merge-back keeps working) rather than serializing
        the full table into every payload.
        """

        if not (HOT_PATH.share_pairs and HOT_PATH.memoize_pairs):
            return None
        memo = self._shared_memo
        if getattr(self._pool, "parallel", False) and (
            len(memo.entries) > SharedPairMemo.MAX_SHIP
        ):
            return SharedPairMemo()
        return memo

    # ------------------------------------------------------------------
    # stage: persistence (warm starts)
    # ------------------------------------------------------------------

    def _load_program_state(self, key: str) -> bool:
        """Try to restore the engine's entire cache state from disk.

        Only attempted on a cold engine (``_last is None``); success makes
        the following pipeline walk hit every cache.  The whole state was
        pickled in one stream, so the restored spans, summaries and
        dependence entries alias one another exactly as they did when
        spilled.  Any failure leaves the engine cold.
        """

        state = self._store.load_program(key)
        if state is None:
            return False
        try:
            spans = state["spans"]
            summaries = state["summaries"]
            summary_revs = state["summary_revs"]
            deps = state["deps"]
            last = state["last"]
            rev_next = state["rev_next"]
            if not all(p in summaries and p in summary_revs for p in _PHASES):
                raise ValueError("missing summary phase")
        except Exception as exc:  # noqa: BLE001 — stay cold on bad record
            log.warning("ignoring invalid program record (%s)", exc)
            self.stats.bump("disk.error")
            return False
        self._spans = dict(spans)
        self._summaries = {p: dict(summaries[p]) for p in _PHASES}
        self._summary_revs = {p: dict(summary_revs[p]) for p in _PHASES}
        self._deps = dict(deps)
        self._last = last
        self._rev_next = max(int(rev_next), self._rev_next)
        self._reset_walk_memos()
        self._kill_views = kills_view(self._summaries["kill"], self.features)
        self._spilled_spans.update(spans)
        self.stats.bump("disk.warm_start")
        return True

    def _spill_state(
        self,
        prog_key: str,
        entries: List[_SpanEntry],
        kinds: Dict[str, str],
    ) -> None:
        """Persist this analysis: per-span records plus one program record.

        Span records warm up *partial* overlaps (an edited file reuses
        every untouched span); the program record warms up an exact reopen
        (source, features and assertions all unchanged).
        """

        for entry in entries:
            if entry.digest in self._spilled_spans:
                continue
            guard = _span_guard(entry, kinds)
            if self._store.save_span(entry.digest, guard, entry.units):
                self._spilled_spans.add(entry.digest)
        if not self._store.has_program(prog_key):
            self._store.save_program(
                prog_key,
                {
                    "spans": {e.digest: e for e in entries},
                    "summaries": self._summaries,
                    "summary_revs": self._summary_revs,
                    "deps": self._deps,
                    "last": self._last,
                    "rev_next": self._rev_next,
                },
            )

    # -- shared pair-test memo: cross-process delta exchange ------------

    def _absorb_memo_deltas(self) -> None:
        """Pull memo entries sibling processes persisted since we last
        looked — the inbound half of the delta exchange.

        Runs at the top of every analysis (record reads are atomic, so
        no lease is needed): entries in the store's singleton record but
        not yet in the live memo are absorbed through the same
        exactly-once :meth:`SharedPairMemo.absorb` path the worker-pool
        merge uses, counted as ``memo.delta_absorbed``.  Absorbing more
        verdicts can never change results — every entry is fully
        content-addressed — it only replays work a sibling already did.
        """

        first = not self._memo_loaded
        self._memo_loaded = True
        if not (HOT_PATH.share_pairs and HOT_PATH.memoize_pairs):
            return
        disk = self._store.load_memo() or {}
        memo = self._shared_memo
        fresh = {k: v for k, v in disk.items() if k not in memo.entries}
        if fresh:
            memo.absorb({"entries": fresh})
            self._store_stats().bump("memo.delta_absorbed", len(fresh))
            if first:
                self.stats.bump("disk.memo_warm")
        self._memo_disk_keys = set(disk)
        self.stats.counters["memo.persisted_entries"] = len(disk)

    def _export_memo_deltas(self) -> None:
        """Ship locally proved entries to the store — the outbound half.

        Export-since-watermark: only entries not already known to be on
        disk (:attr:`_memo_disk_keys`) are shipped.  The read-merge-
        write runs under the store's memo lease so N processes extend
        rather than overwrite each other's records; entries the
        authoritative re-read reveals are absorbed for free.  A lease
        timeout skips the export (``memo.delta_skipped``) — the delta
        stays local and ships on the next analysis.
        """

        if not (HOT_PATH.share_pairs and HOT_PATH.memoize_pairs):
            return
        memo = self._shared_memo
        snapshot = dict(memo.entries)
        delta = {
            k: v
            for k, v in snapshot.items()
            if k not in self._memo_disk_keys
        }
        if not delta:
            return
        st = self._store_stats()
        lease = self._store.memo_lease()
        if not lease.acquire(timeout=5.0):
            st.bump("memo.delta_skipped")
            return
        try:
            # Authoritative under the lease: siblings may have written
            # since our absorb pass.
            disk = self._store.load_memo() or {}
            sibling_fresh = {
                k: v for k, v in disk.items() if k not in memo.entries
            }
            if sibling_fresh:
                memo.absorb({"entries": sibling_fresh})
                st.bump("memo.delta_absorbed", len(sibling_fresh))
            merged = dict(disk)
            exported = 0
            for k, v in delta.items():
                if k not in merged:
                    if len(merged) >= SharedPairMemo.MAX_ENTRIES:
                        break
                    merged[k] = v
                    exported += 1
            if (exported or not disk) and self._store.save_memo(merged):
                st.bump("memo.delta_exported", exported)
            self._memo_disk_keys = set(merged)
            self.stats.counters["memo.persisted_entries"] = len(merged)
        finally:
            lease.release()

    # -- per-unit summary records ---------------------------------------

    def _unit_summary_keys(self, run: _Run) -> Dict[str, Optional[str]]:
        """Recursive content key per unit, callees-first.

        A unit's key digests the feature set, its name, its span digest
        and its (sorted) callees' keys — everything its bottom-up
        summaries are a function of.  Members of recursive SCCs get
        ``None`` (their summaries are fixpoints over the whole cycle,
        not per-unit content), and ``None`` poisons every caller above.
        """

        cg, owners = run.cg, run.owners
        feats = features_digest(self.features)
        keys: Dict[str, Optional[str]] = {}
        for group, recursive in self._summary_schedule(run):
            if recursive:
                for n in group:
                    keys[n] = None
                continue
            for n in group:
                parts = [feats, n, owners[n][0].digest]
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

    def _spill_unit_summaries(
        self, ukeys: Dict[str, Optional[str]]
    ) -> None:
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
        for n, key in ukeys.items():
            if key is None or key in self._spilled_usums:
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


def _guard_ok(
    guard: Tuple[frozenset, frozenset], kinds: Dict[str, str]
) -> bool:
    """Is a disk span record admissible under the current unit set?

    Binding consults the global program only to decide whether a
    referenced name is a function unit, so agreement on that question
    over every recorded name makes the recorded binding valid here.
    """

    names, funcs = guard
    return all(
        (kinds.get(n) == "function") == (n in funcs) for n in names
    )


def _span_guard(
    entry: _SpanEntry, kinds: Dict[str, str]
) -> Tuple[frozenset, frozenset]:
    """The binding guard recorded with a span: every name the span's
    units reference (symbol tables cover them all) plus the subset that
    are function units in the current program."""

    names = set()
    for unit in entry.units:
        names.add(unit.name)
        table = getattr(unit, "symtab", None)
        if table is not None:
            names.update(table.symbols)
    funcs = frozenset(n for n in names if kinds.get(n) == "function")
    return (frozenset(names), funcs)


def _restore_pristine(entry: _DepEntry) -> None:
    """Undo session-side mutation (markings, verdicts) on a cached unit."""

    entry.ua.graph.restore_markings(entry.markings)
    for sid, (obstacles, parallelizable) in entry.verdicts.items():
        info = entry.ua.loop_info[sid]
        info.obstacles = list(obstacles)
        info.parallelizable = parallelizable


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
