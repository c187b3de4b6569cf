"""The dependence-analysis driver: one procedure in, one annotated
dependence graph plus per-loop parallelization verdicts out.

This is the analysis engine behind the Ped session.  Its
:class:`AnalysisConfig` exposes exactly the levers the experiences paper
evaluates in Table 3:

* ``effects`` / ``section_provider`` — interprocedural MOD/REF and regular
  section analysis (without them every call kills precision);
* ``inherited_constants`` — interprocedural constants;
* ``oracle`` — symbolic analysis sharpened by user assertions;
* ``use_kill`` — scalar kill analysis → privatization;
* ``use_reductions`` / ``use_inductions`` — idiom recognition that
  discounts the corresponding recurrences.

Toggling these and watching which loops become parallelizable regenerates
the paper's analysis-contribution table.

Array dependences come from one pair walk
(:meth:`_GraphBuilder._build_batched`): it prunes structurally edge-free
pairs, tests each canonical pair form once per unit (or replays it from
the program-scoped :class:`~repro.dependence.hierarchy.SharedPairMemo`)
and runs the test hierarchy tier by tier over the batch
(:mod:`repro.dependence.batch`).  Its pair-at-a-time equivalent lives in
``tests/dependence/reference_walk.py`` as the parity oracle.
:data:`PROFILE_TIERS` (``--profile``) adds per-tier wall times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..analysis.cfg import CFG, build_cfg
from ..analysis.constants import ConstantMap, propagate_constants
from ..analysis.defuse import (
    ConservativeEffects,
    DefUse,
    SideEffects,
    compute_defuse,
)
from ..analysis.induction import InductionVar, auxiliary_inductions
from ..analysis.kill import PrivatizableScalar, privatizable_scalars
from ..analysis.reductions import Reduction, find_reductions
from ..analysis.symbolic import Linear, linear_of_expr
from ..fortran.ast_nodes import (
    DoLoop,
    GotoStmt,
    IOStmt,
    ProcedureUnit,
    ReturnStmt,
    Stmt,
    StopStmt,
    walk_statements,
)
from ..fortran.symbols import SymbolTable
from .control import control_dependences
from .graph import (
    ANTI,
    CONTROL,
    Dependence,
    DependenceGraph,
    FLOW,
    INPUT,
    OUTPUT,
    PENDING,
    PROVEN,
)
from .hierarchy import DependenceTester, PairResult, VectorResult
from .references import (
    ArrayAccess,
    LoopNest,
    SectionProvider,
    collect_loops,
    collect_refs,
)
from .tests import EQ, GT, LT, LoopBound, Oracle


#: Record per-tier wall time in every tester (``--profile`` sets it);
#: off by default because the timing calls sit inside the test
#: hierarchy.
PROFILE_TIERS = False


class UnitStatementIndex:
    """Single-pass statement index of one procedure.

    Built once per :func:`analyze_unit` and shared by every consumer that
    previously re-walked the AST — scalar dependence collection, per-loop
    verdicts, the GOTO-target check and the editor's loop-body queries.
    ``loop_body[sid]`` lists the statements strictly inside that DO loop
    in :func:`walk_statements` order; ``label_to_sid`` maps statement
    labels to the first statement carrying them (lexical order, exactly
    what the old per-GOTO walk returned).
    """

    def __init__(self, unit: ProcedureUnit) -> None:
        self.label_to_sid: Dict[int, int] = {}
        self.loop_body: Dict[int, List[Stmt]] = {}
        self._body_sids: Dict[int, Set[int]] = {}
        self._build(unit.body, [])

    def _build(self, body: Sequence[Stmt], active: List[int]) -> None:
        for st in body:
            for sid in active:
                self.loop_body[sid].append(st)
            if st.label is not None and st.label not in self.label_to_sid:
                self.label_to_sid[st.label] = st.sid
            if isinstance(st, DoLoop):
                self.loop_body[st.sid] = []
                active.append(st.sid)
                self._build(st.body, active)
                active.pop()
            else:
                for blk in st.blocks():
                    self._build(blk, active)

    def body_statements(self, loop: DoLoop) -> List[Stmt]:
        """Statements inside ``loop`` (header excluded), lexical order."""

        stmts = self.loop_body.get(loop.sid)
        if stmts is None:  # loop not part of the indexed unit
            return list(walk_statements(loop.body))
        return stmts

    def body_sids(self, loop: DoLoop) -> Set[int]:
        sids = self._body_sids.get(loop.sid)
        if sids is None:
            sids = {st.sid for st in self.body_statements(loop)}
            self._body_sids[loop.sid] = sids
        return sids


@dataclass
class AnalysisConfig:
    """Feature switches for the analysis engine (the Table 3 levers)."""

    effects: Optional[SideEffects] = None
    section_provider: Optional[SectionProvider] = None
    oracle: Optional[Oracle] = None
    inherited_constants: Optional[Mapping[str, object]] = None
    use_constants: bool = True
    use_kill: bool = True
    use_reductions: bool = True
    use_inductions: bool = True
    input_deps: bool = False
    control_deps: bool = True
    #: Optional interprocedural array-kill hook: callable(loop, unit) →
    #: set of array names privatizable in that loop (fully overwritten
    #: before any read, every iteration).
    privatizable_arrays_fn: Optional[object] = None
    #: Program-scoped :class:`SharedPairMemo`; verdicts proved in one
    #: unit replay in every other unit keyed on the same canonical form.
    shared_memo: Optional[object] = None

    def resolved_effects(self) -> SideEffects:
        return self.effects or ConservativeEffects()

    def resolved_oracle(self) -> Oracle:
        return self.oracle or Oracle()


@dataclass
class LoopInfo:
    """Per-loop analysis verdict."""

    nest: LoopNest
    carried: List[Dependence] = field(default_factory=list)
    privatizable: List[PrivatizableScalar] = field(default_factory=list)
    privatizable_arrays: Set[str] = field(default_factory=set)
    reductions: List[Reduction] = field(default_factory=list)
    inductions: List[InductionVar] = field(default_factory=list)
    obstacles: List[str] = field(default_factory=list)
    parallelizable: bool = False

    @property
    def loop(self) -> DoLoop:
        return self.nest.loop

    def blocking_deps(self) -> List[Dependence]:
        """Carried dependences still standing after idiom discounts."""

        return [
            d
            for d in self.carried
            if d.blocks_parallelization
            and not d.reason
            and d.var not in self.privatizable_arrays
        ]


@dataclass
class UnitAnalysis:
    """All analysis artifacts of one procedure."""

    unit: ProcedureUnit
    cfg: CFG
    defuse: DefUse
    constants: ConstantMap
    loops: List[LoopNest]
    graph: DependenceGraph
    loop_info: Dict[int, LoopInfo]
    tester: DependenceTester
    pair_results: List[PairResult]
    stmt_index: UnitStatementIndex
    #: Wall seconds of the whole graph build (pair testing + scalar +
    #: control dependences) and of the array-pair testing stage alone;
    #: the engine reports them as the ``dep.build_s`` / ``dep.pair_s``
    #: stats rows.
    build_seconds: float = 0.0
    pair_seconds: float = 0.0

    def info_for(self, loop: DoLoop) -> LoopInfo:
        return self.loop_info[loop.sid]

    def parallel_loops(self) -> List[LoopInfo]:
        return [li for li in self.loop_info.values() if li.parallelizable]

    def body_sids(self, loop: DoLoop) -> Set[int]:
        """Statement sids inside ``loop`` (cached via the unit index)."""

        return self.stmt_index.body_sids(loop)

    def body_statements(self, loop: DoLoop) -> List[Stmt]:
        """Statements inside ``loop`` (cached via the unit index)."""

        return self.stmt_index.body_statements(loop)

    def hotpath_stats(self) -> Dict[str, int]:
        """Pair-pruning and memoization counters of this unit's run."""

        return {
            "pairs_pruned": self.tester.pair_resolution.get("pruned", 0),
            "memo_hits": self.tester.memo_hits,
            "memo_misses": self.tester.memo_misses,
            "shared_hits": self.tester.shared_hits,
            "shared_misses": self.tester.shared_misses,
        }


def analyze_unit(
    unit: ProcedureUnit, config: Optional[AnalysisConfig] = None
) -> UnitAnalysis:
    """Run the full intraprocedural analysis pipeline on ``unit``."""

    config = config or AnalysisConfig()
    effects = config.resolved_effects()
    oracle = config.resolved_oracle()

    cfg = build_cfg(unit)
    defuse = compute_defuse(unit, cfg, effects)
    inherited = dict(config.inherited_constants or {})
    # User value assertions ("assert n == 64") act as inherited constants:
    # the paper's "partial evaluation" prong of the symbolics programme.
    asserted = getattr(oracle, "constants", None)
    if callable(asserted):
        for name, value in asserted().items():
            inherited.setdefault(name, value)
    constants = propagate_constants(
        unit, cfg, effects, inherited
    ) if config.use_constants else ConstantMap()
    loops = collect_loops(unit)
    table: SymbolTable = unit.symtab  # type: ignore[assignment]
    stmt_index = UnitStatementIndex(unit)

    # Idiom recognition once per loop, shared by the graph builder (edge
    # annotation) and the per-loop verdicts (reporting).
    reductions: Dict[int, List[Reduction]] = {}
    inductions: Dict[int, List[InductionVar]] = {}
    for nest in loops:
        loop = nest.loop
        reductions[loop.sid] = (
            find_reductions(loop, table, effects)
            if config.use_reductions
            else []
        )
        inductions[loop.sid] = (
            auxiliary_inductions(loop, table, effects)
            if config.use_inductions
            else []
        )

    graph = DependenceGraph()
    tester = DependenceTester(
        table, oracle, shared=config.shared_memo, profile=PROFILE_TIERS
    )
    builder = _GraphBuilder(
        unit,
        cfg,
        defuse,
        constants,
        loops,
        graph,
        tester,
        config,
        stmt_index,
        reductions,
        inductions,
    )
    build_t0 = perf_counter()
    pair_results = builder.build()
    build_seconds = perf_counter() - build_t0
    # The shared memo has done its job for this unit; detach it so
    # cached/pickled UnitAnalysis objects stay lean (hit/miss counters
    # survive).
    tester.shared = None

    loop_info: Dict[int, LoopInfo] = {}
    for nest in loops:
        loop_info[nest.loop.sid] = _loop_verdict(
            nest,
            unit,
            graph,
            defuse,
            config,
            effects,
            stmt_index,
            reductions[nest.loop.sid],
            inductions[nest.loop.sid],
        )

    return UnitAnalysis(
        unit,
        cfg,
        defuse,
        constants,
        loops,
        graph,
        loop_info,
        tester,
        pair_results,
        stmt_index,
        build_seconds=build_seconds,
        pair_seconds=builder.pair_seconds,
    )


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


class _GraphBuilder:
    def __init__(
        self,
        unit,
        cfg,
        defuse,
        constants,
        loops,
        graph,
        tester,
        config,
        stmt_index: UnitStatementIndex,
        reductions: Dict[int, List[Reduction]],
        inductions: Dict[int, List[InductionVar]],
    ):
        self.unit = unit
        self.cfg = cfg
        self.defuse = defuse
        self.constants = constants
        self.loops = loops
        self.graph = graph
        self.tester = tester
        self.config = config
        self.table: SymbolTable = unit.symtab
        self.effects = config.resolved_effects()
        self.oracle = config.resolved_oracle()
        self.stmt_index = stmt_index
        self._seen_scalar: Set[Tuple] = set()
        #: Wall seconds of the array-pair testing stage of :meth:`build`.
        self.pair_seconds = 0.0
        # Idioms per loop (one recognition pass in analyze_unit, shared
        # with the loop verdicts), used to annotate (not suppress) edges.
        self.reduction_vars: Dict[int, Set[str]] = {
            sid: {r.var for r in found} for sid, found in reductions.items()
        }
        self.induction_vars: Dict[int, Set[str]] = {
            sid: {iv.name for iv in found} for sid, found in inductions.items()
        }

    # -- bounds ----------------------------------------------------------

    def loop_bound(self, loop: DoLoop) -> LoopBound:
        env = self.constants.linear_env(loop.sid)
        lo_lin = linear_of_expr(loop.start, self.table, env)
        hi_lin = linear_of_expr(loop.end, self.table, env)
        lo = _lin_to_float(lo_lin, self.oracle, want_low=True)
        hi = _lin_to_float(hi_lin, self.oracle, want_low=False)
        return LoopBound(loop.var, lo, hi)

    def bounds_for(self, nest: Sequence[DoLoop]) -> List[LoopBound]:
        return [self.loop_bound(loop) for loop in nest]

    # -- array dependences --------------------------------------------------

    def build(self) -> List[PairResult]:
        refs = collect_refs(self.unit, self.config.section_provider)
        by_array: Dict[str, List[ArrayAccess]] = {}
        for r in refs:
            by_array.setdefault(r.array, []).append(r)

        pair_t0 = perf_counter()
        results = self._build_batched(by_array)
        self.pair_seconds = perf_counter() - pair_t0
        self._scalar_dependences()
        self._procedure_scalar_deps()
        if self.config.control_deps:
            for a, c in control_dependences(self.cfg):
                sa = self.cfg.stmts[a]
                sc = self.cfg.stmts[c]
                self.graph.add(
                    CONTROL,
                    "",
                    a,
                    c,
                    (),
                    0,
                    marking=PROVEN,
                    src_line=sa.line,
                    dst_line=sc.line,
                )
        return results

    def _build_batched(
        self, by_array: Dict[str, List[ArrayAccess]]
    ) -> List[PairResult]:
        """The pair walk: enumerate every surviving pair in canonical
        order (arrays sorted by name, then ``(i, j)`` with ``i <= j``),
        prune the structurally edge-free ones, derive per-nest and
        per-statement context once, resolve every other pair against the
        batch memo plan and the shared memo in the same pass, run the
        test hierarchy tier-by-tier over the misses
        (:func:`repro.dependence.batch.run_uncached`), then emit results
        and graph edges in pair order."""

        from .batch import BatchPair, run_uncached

        tester = self.tester
        count_pruned = tester.count_pruned
        shared = tester.shared
        # Pruned pairs resolve during collection (no edges, additive
        # counters); tested pairs leave a ``None`` hole that the batch
        # results fill afterwards, so ``results`` keeps pair order.
        results: List[Optional[PairResult]] = []
        holes: List[int] = []
        # One row per tested pair: (a, b, slot, array, common, nest_sids)
        # where ``slot`` is the pair's plan outcome — a shared-memo value
        # tuple, or the :class:`BatchPair` computing its canonical key.
        rows: List[tuple] = []
        # Batch memo plan: interned key id-tuple → slot.  First
        # occurrence of a key probes the shared memo and (on a miss)
        # becomes a BatchPair; every later occurrence is a local memo
        # hit.
        plan_map: Dict[tuple, object] = {}
        uniques: List[BatchPair] = []
        memo_hits = 0
        # Nest context per (src-nest, snk-nest) identity: the common
        # prefix, its bounds (and their key tuple) and the nest vars are
        # all functions of the two nest tuples, derived once per batch.
        # Keyed by id() — the tuples are held alive by the cache value.
        ctx_cache: Dict[Tuple[int, int], tuple] = {}
        bounds_cache: Dict[Tuple[int, ...], tuple] = {}
        env_cache: Dict[int, Dict] = {}
        slice_cache: Dict[tuple, tuple] = {}
        # Value-interning of key components.  Every canonical-key part
        # (signature shape, bounds key, env slice) is mapped to one
        # representative object per batch, so the plan keys — tuples of
        # the representatives' ids — are equal exactly when the deep
        # canonical keys are, and the memo plan hashes four ints per
        # pair instead of the full nested key.  The driver's caches keep
        # every representative alive for the batch.
        shape_intern: Dict[tuple, tuple] = {}
        acc_cache: Dict[int, tuple] = {}
        bk_intern: Dict[tuple, tuple] = {}
        slice_intern: Dict[tuple, tuple] = {}
        # Per-source context — sid, env, signature, nest identity — is
        # derived once per source access rather than once per pair.
        input_deps = self.config.input_deps
        constants = self.constants
        for array, accs in sorted(by_array.items()):
            n_acc = len(accs)
            for i in range(n_acc):
                a = accs[i]
                a_write = a.is_write
                # A single access only matters against itself when it
                # can recur across iterations (a write in a loop).
                a_self_ok = a_write and a.nest
                a_ready = False
                # Per-source pruner state.  A pair is edge-free without
                # any test when it is one statement with no enclosing
                # loop (only carried vectors become edges for a
                # same-statement pair), or when both sides are literal
                # constants (or constant section ranges) that do not
                # overlap at some subscript position.
                a_sid = a.sid
                a_no_nest = not a.nest
                ca = a._const_dims
                if ca is None:
                    ca = a.const_dims()
                # Everything the batch needs for a pair (a, b) is a pure
                # function of a's context plus (b's signature, b's nest)
                # — so with ``a`` fixed, one dict probe replaces the full
                # derivation for every later ``b`` that repeats the
                # combination (stencil statements do, constantly).
                pair_cache: Dict[Tuple[int, int], tuple] = {}
                for j in range(i, n_acc):
                    b = accs[j]
                    if not a_write and not b.is_write and not input_deps:
                        continue
                    if j == i and not a_self_ok:
                        continue
                    if a_no_nest and b.sid == a_sid:
                        results.append(count_pruned(a, b))
                        continue
                    if ca:
                        cb = b._const_dims
                        if cb is None:
                            cb = b.const_dims()
                        if cb and _const_disjoint(ca, cb):
                            results.append(count_pruned(a, b))
                            continue
                    if not a_ready:
                        a_ready = True
                        a_nid = id(a.nest)
                        sid = a.sid
                        env = env_cache.get(sid)
                        if env is None:
                            env = constants.linear_env(sid)
                            env_cache[sid] = env
                        a_info = acc_cache.get(id(a))
                        if a_info is None:
                            shape, names = a._sig or a.signature()
                            rep = shape_intern.get(shape)
                            if rep is None:
                                shape_intern[shape] = rep = shape
                            a_info = (rep, names)
                            acc_cache[id(a)] = a_info
                        src_shape, src_names = a_info
                    b_sig = b._sig
                    if b_sig is None:
                        b_sig = b.signature()
                    pc_key = (id(b_sig), id(b.nest))
                    rec = pair_cache.get(pc_key)
                    if rec is None:
                        ctx = ctx_cache.get((a_nid, id(b.nest)))
                        if ctx is None:
                            common = a.common_nest(b)
                            nest_sids = tuple(loop.sid for loop in common)
                            cached = bounds_cache.get(nest_sids)
                            if cached is None:
                                bounds = self.bounds_for(common)
                                bk = tuple(
                                    (x.var, x.lo, x.hi) for x in bounds
                                )
                                rep = bk_intern.get(bk)
                                if rep is None:
                                    bk_intern[bk] = rep = bk
                                cached = (
                                    bounds,
                                    [x.var for x in bounds],
                                    rep,
                                )
                                bounds_cache[nest_sids] = cached
                            ctx = (a.nest, b.nest, common, nest_sids) + cached
                            ctx_cache[(a_nid, id(b.nest))] = ctx
                        _, _, common, nest_sids, bounds, nest_vars, bounds_key = ctx
                        b_info = acc_cache.get(id(b))
                        if b_info is None:
                            shape, names = b_sig
                            rep = shape_intern.get(shape)
                            if rep is None:
                                shape_intern[shape] = rep = shape
                            b_info = (rep, names)
                            acc_cache[id(b)] = b_info
                        snk_shape, snk_names = b_info
                        if env:
                            slice_key = (sid, src_names, snk_names)
                            env_slice = slice_cache.get(slice_key)
                            if env_slice is None:
                                names = src_names | snk_names
                                env_slice = tuple(
                                    sorted(
                                        (n, env[n]) for n in names if n in env
                                    )
                                )
                                rep = slice_intern.get(env_slice)
                                if rep is None:
                                    slice_intern[env_slice] = rep = env_slice
                                slice_cache[slice_key] = env_slice = rep
                        else:
                            env_slice = ()
                        key = (src_shape, snk_shape, bounds_key, env_slice)
                        ikey = (
                            id(src_shape),
                            id(snk_shape),
                            id(bounds_key),
                            id(env_slice),
                        )
                        rec = (key, ikey, common, nest_sids, bounds, nest_vars)
                        pair_cache[pc_key] = rec
                    slot = plan_map.get(rec[1])
                    if slot is None:
                        shared_key = tester._shared_key(rec[0], a, b)
                        if shared_key is not None:
                            slot = shared.lookup(shared_key)
                        if slot is not None:
                            tester.shared_hits += 1
                        else:
                            if shared_key is not None:
                                tester.shared_misses += 1
                            tester.memo_misses += 1
                            slot = BatchPair(
                                a, b, rec[4], rec[5], env, shared_key
                            )
                            uniques.append(slot)
                        plan_map[rec[1]] = slot
                    else:
                        memo_hits += 1
                    holes.append(len(results))
                    results.append(None)
                    rows.append((a, b, slot, array, rec[2], rec[3]))
        tester.memo_hits += memo_hits
        run_uncached(tester, uniques)
        # Stores stay in discovery order.  Within one batch a store can
        # never feed a later lookup — distinct plan keys imply distinct
        # shared keys — so storing after the sweeps equals storing as
        # each pair is tested.
        for u in uniques:
            if u.shared_key is not None:
                shared.store(u.shared_key, u.value)
        # Emission: first occurrence of each unique hands out the result
        # the sweeps built (its counters are already bumped); every other
        # pair replays its recorded value — multiplicity-applied counter
        # bumps afterwards, one reconstructed vectors list per distinct
        # value — so tier counters equal those of testing every pair.
        add_edge = self._add_vector_edge
        rcache: Dict[int, list] = {}
        for row, pos in zip(rows, holes):
            a, b, slot, array, common, nest_sids = row
            if type(slot) is BatchPair:
                if not slot.emitted:
                    slot.emitted = True
                    result = slot.result
                    results[pos] = result
                    for vr in result.vectors:
                        add_edge(
                            array, a, b, vr.vector, vr.proven, vr.test,
                            common, nest_sids,
                        )
                    continue
                value = slot.value
            else:
                value = slot
            cached = rcache.get(id(value))
            if cached is None:
                independent, vec_t, resolved_by, tr_items, classic = value
                vecs = [VectorResult(v, e, p, t) for (v, e, p, t) in vec_t]
                cached = [
                    independent, vecs, resolved_by, dict(tr_items), classic,
                    tr_items, value, 0,
                ]
                rcache[id(value)] = cached
            cached[7] += 1
            results[pos] = PairResult(
                a, b, cached[0], cached[1], cached[2], cached[3], cached[4]
            )
            for vr in cached[1]:
                add_edge(
                    array, a, b, vr.vector, vr.proven, vr.test,
                    common, nest_sids,
                )
        if rcache:
            tier_counts = tester.tier_counts
            pair_resolution = tester.pair_resolution
            resolution_classic = tester.pair_resolution_classic
            for cached in rcache.values():
                mult = cached[7]
                for tier, cnt in cached[5]:
                    tier_counts[tier] = (
                        tier_counts.get(tier, 0) + cnt * mult
                    )
                tier = cached[2]
                pair_resolution[tier] = (
                    pair_resolution.get(tier, 0) + mult
                )
                if cached[4]:
                    resolution_classic[tier] = (
                        resolution_classic.get(tier, 0) + mult
                    )
        return results

    def _add_vector_edge(
        self,
        array: str,
        a: ArrayAccess,
        b: ArrayAccess,
        vector: Tuple[object, ...],
        proven: bool,
        test: str,
        common: Tuple[DoLoop, ...],
        nest_sids: Tuple[int, ...],
    ) -> None:
        level = _first_nonequal_level(vector)
        if level is None:
            # Loop-independent: direction = execution order inside the
            # iteration. Self-pairs (same statement) carry no information.
            if a.sid == b.sid:
                return
            src, snk = (a, b) if a.sid < b.sid else (b, a)
            vec = vector
        else:
            elem = vector[level - 1]
            backwards = (isinstance(elem, int) and elem < 0) or elem == GT
            if backwards:
                src, snk = b, a
                vec = _reverse_vector(vector)
            else:
                src, snk = a, b
                vec = vector
        kind = _dep_kind(src.is_write, snk.is_write)
        reason = ""  # arrays are never reduction/induction idioms here
        self.graph.add(
            kind,
            array,
            src.sid,
            snk.sid,
            vec,
            level or 0,
            marking=PROVEN if proven else PENDING,
            test=test,
            src_line=src.line or src.stmt.line,
            dst_line=snk.line or snk.stmt.line,
            reason=reason,
            nest_sids=nest_sids,
        )

    # -- scalar dependences ---------------------------------------------------

    def _scalar_dependences(self) -> None:
        from ..analysis.kill import killed_scalars

        for nest in self.loops:
            loop = nest.loop
            body_stmts = self.stmt_index.body_statements(loop)
            defs_by_var: Dict[str, List[Stmt]] = {}
            uses_by_var: Dict[str, List[Stmt]] = {}
            for st in body_stmts:
                # May-defs matter too: a CALL that may modify a scalar
                # creates (pending) cross-iteration dependences — the very
                # imprecision interprocedural MOD/REF analysis removes.
                for v in self.defuse.may_defs.get(st.sid, ()):
                    if not self.table.ensure(v).is_array:
                        defs_by_var.setdefault(v, []).append(st)
                for v in self.defuse.uses.get(st.sid, ()):  # uses
                    if not self.table.ensure(v).is_array:
                        uses_by_var.setdefault(v, []).append(st)
            killed = (
                killed_scalars(loop, self.table, self.effects)
                if self.config.use_kill
                else set()
            )
            nest_loops = nest.parents + (loop,)
            nest_sids = tuple(x.sid for x in nest_loops)
            level = len(nest_loops)  # carried at this loop's level
            for var, def_sites in sorted(defs_by_var.items()):
                if var == loop.var:
                    continue
                use_sites = uses_by_var.get(var, [])
                reason = ""
                if var in self.reduction_vars[loop.sid]:
                    reason = "reduction"
                elif var in self.induction_vars[loop.sid]:
                    reason = "induction"
                if var in killed and not reason:
                    # Same-iteration flow only; no carried dependence, but
                    # privatization is required before parallelization —
                    # recorded via LoopInfo.privatizable.
                    continue
                vec = tuple([EQ] * (level - 1) + [LT])
                for d in def_sites:
                    for u in use_sites:
                        self._add_scalar_edge(FLOW, var, d, u, vec, level, nest_sids, reason)
                    for d2 in def_sites:
                        if d2.sid >= d.sid:
                            self._add_scalar_edge(
                                OUTPUT, var, d, d2, vec, level, nest_sids, reason
                            )
                for u in use_sites:
                    for d in def_sites:
                        self._add_scalar_edge(ANTI, var, u, d, vec, level, nest_sids, reason)

    def _procedure_scalar_deps(self) -> None:
        """Loop-independent scalar dependences across the procedure.

        Flow edges come from def-use chains; anti and output edges from
        textual def ordering.  These never block parallelization (level 0)
        but they are what the dependence pane shows between straight-line
        statements, and what statement interchange / distribution must
        respect: every one is kept, however heavily the scalar is used,
        because those transformations decide legality from exactly these
        edges.
        """

        from ..analysis.cfg import ENTRY

        defs_by_var: Dict[str, List[int]] = {}
        uses_by_var: Dict[str, List[int]] = {}
        for sid in self.cfg.stmts:
            for v in self.defuse.must_defs.get(sid, ()):  # must defs only
                if not self.table.ensure(v).is_array:
                    defs_by_var.setdefault(v, []).append(sid)
            for v in self.defuse.uses.get(sid, ()):  # uses
                if not self.table.ensure(v).is_array:
                    uses_by_var.setdefault(v, []).append(sid)
        for sid, chains in self.defuse.ud.items():
            for var, def_sites in chains.items():
                if self.table.ensure(var).is_array:
                    continue
                for d in def_sites:
                    if d == ENTRY or d == sid:
                        continue
                    self._add_scalar_edge(
                        FLOW,
                        var,
                        self.cfg.stmts[d],
                        self.cfg.stmts[sid],
                        (),
                        0,
                        (),
                        "",
                    )
        for var, defs in defs_by_var.items():
            for u_sid in uses_by_var.get(var, []):
                for d_sid in defs:
                    if d_sid > u_sid:
                        self._add_scalar_edge(
                            ANTI,
                            var,
                            self.cfg.stmts[u_sid],
                            self.cfg.stmts[d_sid],
                            (),
                            0,
                            (),
                            "",
                        )
            for d1 in defs:
                for d2 in defs:
                    if d2 > d1:
                        self._add_scalar_edge(
                            OUTPUT,
                            var,
                            self.cfg.stmts[d1],
                            self.cfg.stmts[d2],
                            (),
                            0,
                            (),
                            "",
                        )

    def _add_scalar_edge(self, kind, var, src, dst, vec, level, nest_sids, reason):
        key = (kind, var, src.sid, dst.sid, level)
        if key in self._seen_scalar:
            return
        self._seen_scalar.add(key)
        self.graph.add(
            kind,
            var,
            src.sid,
            dst.sid,
            vec,
            level,
            marking=PENDING,
            test="scalar",
            src_line=src.line,
            dst_line=dst.line,
            reason=reason,
            nest_sids=nest_sids,
        )


# ---------------------------------------------------------------------------
# Loop verdicts
# ---------------------------------------------------------------------------


def _loop_verdict(
    nest: LoopNest,
    unit: ProcedureUnit,
    graph: DependenceGraph,
    defuse: DefUse,
    config: AnalysisConfig,
    effects: SideEffects,
    index: UnitStatementIndex,
    reductions: List[Reduction],
    inductions: List[InductionVar],
) -> LoopInfo:
    loop = nest.loop
    info = LoopInfo(nest, reductions=reductions, inductions=inductions)
    info.carried = graph.carried_by(loop)
    if config.use_kill:
        info.privatizable = privatizable_scalars(loop, unit, defuse, effects)
    if config.privatizable_arrays_fn is not None:
        candidates = set(
            config.privatizable_arrays_fn(loop, unit)  # type: ignore[operator]
        )
        # A privatized array that is live after the loop would need a
        # last-value copy-out; without one, permuting iterations changes
        # the final contents.  Only discount arrays dead on the loop's
        # *exit edge* (array element defs never kill in liveness, so the
        # header's merged live-out would wrongly include body uses).
        body_sids = index.body_sids(loop)
        live_after: Set[str] = set()
        for succ in defuse.cfg.succ.get(loop.sid, ()):
            if succ not in body_sids:
                live_after |= set(defuse.live_in.get(succ, frozenset()))
        info.privatizable_arrays = {
            v for v in candidates if v not in live_after
        }
    obstacles: List[str] = []
    blocking = [
        d
        for d in info.carried
        if d.blocks_parallelization
        and not d.reason
        and d.var not in info.privatizable_arrays
    ]
    for dep in blocking:
        status = "proven" if dep.marking == "proven" else dep.marking
        obstacles.append(
            f"loop-carried {dep.kind} dependence on {dep.var} "
            f"{dep.vector_str()} [{status}]"
        )

    for st in index.body_statements(loop):
        if isinstance(st, IOStmt):
            obstacles.append(f"I/O statement at line {st.line}")
        elif isinstance(st, (ReturnStmt, StopStmt)):
            obstacles.append(f"premature exit at line {st.line}")
        elif isinstance(st, GotoStmt):
            target_sid = index.label_to_sid.get(st.target)
            if target_sid is None or target_sid not in index.body_sids(loop):
                obstacles.append(f"branch out of loop at line {st.line}")

    info.obstacles = obstacles
    info.parallelizable = not obstacles
    return info


def _const_disjoint(
    ca: Tuple[Tuple[int, int, int], ...], cb: Tuple[Tuple[int, int, int], ...]
) -> bool:
    """Disjoint constant ranges at any shared subscript position.

    Both sides are sparse ``(dim, lo, hi)`` tuples, ascending by dim; a
    dimension only prunes when constant on both sides.
    """

    for pos, alo, ahi in ca:
        for pos2, blo, bhi in cb:
            if pos2 == pos:
                if alo > bhi or blo > ahi:
                    return True
                break
            if pos2 > pos:
                break
    return False


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _lin_to_float(lin: Linear, oracle: Oracle, want_low: bool) -> float:
    value = lin.constant_value()
    if value is not None:
        return float(value)
    lo, hi = oracle.range_of(lin)
    return lo if want_low else hi


def _first_nonequal_level(vector: Tuple[object, ...]) -> Optional[int]:
    for k, elem in enumerate(vector):
        if isinstance(elem, int):
            if elem != 0:
                return k + 1
        elif elem != EQ:
            return k + 1
    return None


def _reverse_vector(vector: Tuple[object, ...]) -> Tuple[object, ...]:
    out: List[object] = []
    for elem in vector:
        if isinstance(elem, int):
            out.append(-elem)
        elif elem == LT:
            out.append(GT)
        elif elem == GT:
            out.append(LT)
        else:
            out.append(elem)
    return tuple(out)


def _dep_kind(src_write: bool, snk_write: bool) -> str:
    if src_write and snk_write:
        return OUTPUT
    if src_write:
        return FLOW
    if snk_write:
        return ANTI
    return INPUT
