"""Definitions, uses, reaching definitions and def-use chains.

Defs and uses are computed per statement at the granularity of *names*
(scalar variables and whole arrays).  Array element accesses are *may*
defs/uses of the array name; the dependence analyzer refines those with
subscript tests.  Procedure calls are handled through a pluggable
:class:`SideEffects` provider: the default :class:`ConservativeEffects`
assumes a call may read and write every actual argument and every COMMON
variable (what Ped must assume without interprocedural analysis); the
interprocedural package supplies a precise provider backed by MOD/REF
sets, which is exactly the "interprocedural side-effect analysis" lever of
Table 3 in the experiences paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..fortran.ast_nodes import (
    ArrayRef,
    Assign,
    CallStmt,
    DoLoop,
    Expr,
    FuncRef,
    If,
    IOStmt,
    ProcedureUnit,
    Stmt,
    VarRef,
    walk_expr,
)
from ..fortran.symbols import COMMON, SymbolTable
from .cfg import CFG, ENTRY, build_cfg
from .dataflow import (
    FORWARD,
    BACKWARD,
    MAY,
    DataFlowProblem,
    gen_kill_transfer,
    solve_with_out,
)

#: A definition site: (statement id, variable name). ENTRY models the
#: values flowing in from outside the procedure.
DefSite = Tuple[int, str]


class SideEffects:
    """Interface for call side effects.

    ``mod``/``ref`` return the sets of caller-visible names the callee may
    modify / may read, given the call's actual arguments.  ``kill`` returns
    the names the callee *must* define on every path before any use —
    empty unless interprocedural kill analysis is available.
    """

    def mod(self, callee: str, args: List[Expr], table: SymbolTable) -> Set[str]:
        raise NotImplementedError

    def ref(self, callee: str, args: List[Expr], table: SymbolTable) -> Set[str]:
        raise NotImplementedError

    def kill(self, callee: str, args: List[Expr], table: SymbolTable) -> Set[str]:
        return set()


class ConservativeEffects(SideEffects):
    """Worst-case assumption: every actual and every COMMON is touched."""

    def _actuals(self, args: List[Expr], table: SymbolTable) -> Set[str]:
        from ..fortran.symbols import PARAM

        names: Set[str] = set()
        for arg in args:
            if isinstance(arg, VarRef) and arg.name != "*":
                sym = table.get(arg.name)
                # PARAMETER constants pass by value of a temporary; no
                # callee can modify them.
                if sym is not None and sym.storage == PARAM:
                    continue
                names.add(arg.name)
            elif isinstance(arg, ArrayRef):
                names.add(arg.name)
        return names

    def _commons(self, table: SymbolTable) -> Set[str]:
        return {s.name for s in table.symbols.values() if s.storage == COMMON}

    def mod(self, callee: str, args: List[Expr], table: SymbolTable) -> Set[str]:
        return self._actuals(args, table) | self._commons(table)

    def ref(self, callee: str, args: List[Expr], table: SymbolTable) -> Set[str]:
        names = self._commons(table)
        for arg in args:
            for sub in walk_expr_args(arg):
                names.add(sub)
        return names


def walk_expr_args(expr: Expr) -> Set[str]:
    """All variable/array names read anywhere inside ``expr``."""

    names: Set[str] = set()
    for node in walk_expr(expr):
        if isinstance(node, VarRef) and node.name != "*":
            names.add(node.name)
        elif isinstance(node, (ArrayRef, FuncRef)):
            if isinstance(node, ArrayRef):
                names.add(node.name)
    return names


def _expr_uses(expr: Expr, effects: SideEffects, table: SymbolTable) -> Set[str]:
    uses: Set[str] = set()
    for node in walk_expr(expr):
        if isinstance(node, VarRef) and node.name != "*":
            uses.add(node.name)
        elif isinstance(node, ArrayRef):
            uses.add(node.name)
        elif isinstance(node, FuncRef) and not node.intrinsic:
            # A user function may read commons too.
            uses |= effects.ref(node.name, node.args, table)
    return uses


def stmt_defs(
    st: Stmt,
    table: SymbolTable,
    effects: Optional[SideEffects] = None,
) -> Tuple[Set[str], Set[str]]:
    """Return ``(must_defs, may_defs)`` of names for one statement.

    ``may_defs`` includes ``must_defs``.  Array element assignments are may
    defs (they do not kill the whole array); scalar assignments are must
    defs.
    """

    effects = effects or ConservativeEffects()
    must: Set[str] = set()
    may: Set[str] = set()
    if isinstance(st, Assign):
        if isinstance(st.target, VarRef):
            must.add(st.target.name)
        elif isinstance(st.target, ArrayRef):
            may.add(st.target.name)
    elif isinstance(st, DoLoop):
        must.add(st.var)
    elif isinstance(st, CallStmt):
        may |= effects.mod(st.name, st.args, table)
        # Interprocedural kill analysis upgrades some may-defs to must-defs:
        # the callee assigns these on every path, killing the prior value.
        must |= effects.kill(st.name, st.args, table) & may
    elif isinstance(st, IOStmt) and st.kind == "read":
        for item in st.items:
            if isinstance(item, VarRef) and item.name != "*":
                must.add(item.name)
            elif isinstance(item, ArrayRef):
                may.add(item.name)
    # Function calls with side effects inside expressions: treated as pure
    # reads here; Ped relies on MOD analysis to catch writer functions, and
    # our workloads call writer procedures only via CALL.
    may |= must
    return must, may


def stmt_uses(
    st: Stmt,
    table: SymbolTable,
    effects: Optional[SideEffects] = None,
) -> Set[str]:
    """Names possibly read by one statement (subscripts included)."""

    effects = effects or ConservativeEffects()
    uses: Set[str] = set()
    if isinstance(st, Assign):
        uses |= _expr_uses(st.expr, effects, table)
        if isinstance(st.target, ArrayRef):
            for sub in st.target.subs:
                uses |= _expr_uses(sub, effects, table)
    elif isinstance(st, DoLoop):
        for e in (st.start, st.end, st.step):
            if e is not None:
                uses |= _expr_uses(e, effects, table)
    elif isinstance(st, If):
        for cond, _ in st.arms:
            if cond is not None:
                uses |= _expr_uses(cond, effects, table)
    elif isinstance(st, CallStmt):
        uses |= effects.ref(st.name, st.args, table)
        for arg in st.args:
            uses |= _expr_uses(arg, effects, table)
    elif isinstance(st, IOStmt):
        for e in st.spec:
            uses |= _expr_uses(e, effects, table)
        if st.kind != "read":
            for e in st.items:
                uses |= _expr_uses(e, effects, table)
        else:
            for e in st.items:
                if isinstance(e, ArrayRef):
                    for sub in e.subs:
                        uses |= _expr_uses(sub, effects, table)
    return uses


@dataclass
class DefUse:
    """Reaching definitions, def-use/use-def chains and liveness.

    ``ud[sid]`` maps each name used by statement ``sid`` to the def sites
    reaching that use; ``du[(sid, name)]`` is the set of statement ids whose
    use of ``name`` the definition at ``sid`` can reach.  ``live_in`` /
    ``live_out`` give liveness per statement.  ENTRY acts as the definition
    site of everything flowing in from outside.
    """

    cfg: CFG
    table: SymbolTable
    must_defs: Dict[int, Set[str]] = field(default_factory=dict)
    may_defs: Dict[int, Set[str]] = field(default_factory=dict)
    uses: Dict[int, Set[str]] = field(default_factory=dict)
    reach_in: Dict[int, FrozenSet[DefSite]] = field(default_factory=dict)
    reach_out: Dict[int, FrozenSet[DefSite]] = field(default_factory=dict)
    ud: Dict[int, Dict[str, Set[int]]] = field(default_factory=dict)
    du: Dict[DefSite, Set[int]] = field(default_factory=dict)
    live_in: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    live_out: Dict[int, FrozenSet[str]] = field(default_factory=dict)


def compute_defuse(
    unit: ProcedureUnit,
    cfg: Optional[CFG] = None,
    effects: Optional[SideEffects] = None,
) -> DefUse:
    """Compute the full def-use summary of a procedure."""

    effects = effects or ConservativeEffects()
    cfg = cfg or build_cfg(unit)
    table: SymbolTable = unit.symtab  # type: ignore[assignment]
    result = DefUse(cfg, table)

    all_names: Set[str] = set(table.symbols)
    gen: Dict[int, Set[DefSite]] = {ENTRY: {(ENTRY, v) for v in all_names}}
    kill: Dict[int, Set[DefSite]] = {}
    all_sites_by_var: Dict[str, Set[DefSite]] = {v: {(ENTRY, v)} for v in all_names}

    for sid, st in cfg.stmts.items():
        must, may = stmt_defs(st, table, effects)
        result.must_defs[sid] = must
        result.may_defs[sid] = may
        result.uses[sid] = stmt_uses(st, table, effects)
        for v in may:
            all_sites_by_var.setdefault(v, set()).add((sid, v))

    for sid, st in cfg.stmts.items():
        gen[sid] = {(sid, v) for v in result.may_defs[sid]}
        kill[sid] = set()
        for v in result.must_defs[sid]:
            kill[sid] |= all_sites_by_var.get(v, set()) - {(sid, v)}

    problem = DataFlowProblem(
        FORWARD,
        MAY,
        gen_kill_transfer(gen, kill),
        boundary=frozenset(gen[ENTRY]),
    )
    reach_in, reach_out = solve_with_out(cfg, problem)
    result.reach_in = reach_in
    result.reach_out = reach_out

    for sid, st in cfg.stmts.items():
        chains: Dict[str, Set[int]] = {}
        for name in result.uses[sid]:
            sites = {d for (d, v) in reach_in[sid] if v == name}
            chains[name] = sites
            for d in sites:
                result.du.setdefault((d, name), set()).add(sid)
        result.ud[sid] = chains

    # Liveness (backward may problem): gen = uses, kill = must defs.
    live_gen = {sid: frozenset(result.uses[sid]) for sid in cfg.stmts}
    live_kill = {sid: frozenset(result.must_defs[sid]) for sid in cfg.stmts}
    live_problem = DataFlowProblem(
        BACKWARD,
        MAY,
        gen_kill_transfer(live_gen, live_kill),
        boundary=frozenset(),
    )
    live_out, live_in = solve_with_out(cfg, live_problem)
    result.live_in = live_in
    result.live_out = live_out
    return result
