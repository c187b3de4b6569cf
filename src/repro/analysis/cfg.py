"""Statement-level control-flow graph.

Ped's analyses operate at statement granularity (each statement is a
dependence-graph vertex), so the CFG does too: every executable statement is
one node, identified by its ``sid``; two synthetic nodes ``ENTRY`` and
``EXIT`` bracket the procedure.

Structured control flow (block IF, DO) contributes edges directly; ``GOTO``
edges resolve through the statement-label map.  A DO loop's header node is
the :class:`DoLoop` statement itself: it has an edge into the body (taken
when the trip count is positive) and an edge to the loop exit (zero-trip
test), and the last body statement has a back edge to the header.

Dominators and postdominators are computed with the classic iterative
algorithm; the postdominator tree drives control-dependence construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..fortran.ast_nodes import (
    DoLoop,
    GotoStmt,
    If,
    ProcedureUnit,
    ReturnStmt,
    Stmt,
    StopStmt,
    walk_statements,
)

ENTRY = -1
EXIT = -2


@dataclass
class CFG:
    """Control-flow graph of one procedure.

    ``succ``/``pred`` map node ids to successor/predecessor id sets.  Node
    ids are statement ``sid`` values plus :data:`ENTRY` and :data:`EXIT`.
    ``stmts`` maps sids back to statement nodes.
    """

    unit: ProcedureUnit
    succ: Dict[int, Set[int]] = field(default_factory=dict)
    pred: Dict[int, Set[int]] = field(default_factory=dict)
    stmts: Dict[int, Stmt] = field(default_factory=dict)

    def nodes(self) -> List[int]:
        return [ENTRY, *sorted(self.stmts), EXIT]

    def add_edge(self, a: int, b: int) -> None:
        self.succ.setdefault(a, set()).add(b)
        self.pred.setdefault(b, set()).add(a)

    # -- dominance ---------------------------------------------------------

    def dominators(self) -> Dict[int, Set[int]]:
        """Classic iterative dominator sets (including the node itself)."""

        return _dominance(self.nodes(), self.pred, ENTRY)

    def postdominators(self) -> Dict[int, Set[int]]:
        """Postdominator sets, computed on the reversed graph from EXIT."""

        return _dominance(self.nodes(), self.succ, EXIT)

    def reverse_postorder(self) -> List[int]:
        """Reverse postorder from ENTRY (good iteration order forward)."""

        seen: Set[int] = set()
        order: List[int] = []

        def dfs(n: int) -> None:
            seen.add(n)
            for s in sorted(self.succ.get(n, ())):
                if s not in seen:
                    dfs(s)
            order.append(n)

        dfs(ENTRY)
        return list(reversed(order))


def _dominance(
    nodes: List[int], edges_in: Dict[int, Set[int]], root: int
) -> Dict[int, Set[int]]:
    all_nodes = set(nodes)
    dom: Dict[int, Set[int]] = {n: set(all_nodes) for n in nodes}
    dom[root] = {root}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == root:
                continue
            preds = [p for p in edges_in.get(n, ()) if p in all_nodes]
            if preds:
                new: Set[int] = set.intersection(*(dom[p] for p in preds))
            else:
                new = set()
            new = new | {n}
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


class _Builder:
    def __init__(self, unit: ProcedureUnit) -> None:
        self.cfg = CFG(unit)
        self.labels: Dict[int, int] = {}
        for st in walk_statements(unit.body):
            self.cfg.stmts[st.sid] = st
            if st.label is not None:
                self.labels[st.label] = st.sid

    def build(self) -> CFG:
        unit = self.cfg.unit
        first = self._first_of(unit.body, EXIT)
        self.cfg.add_edge(ENTRY, first)
        self._build_block(unit.body, EXIT)
        # Make EXIT reachable in succ/pred maps even for empty bodies.
        self.cfg.succ.setdefault(EXIT, set())
        self.cfg.pred.setdefault(ENTRY, set())
        return self.cfg

    def _first_of(self, body: List[Stmt], follow: int) -> int:
        return body[0].sid if body else follow

    def _build_block(self, body: List[Stmt], follow: int) -> None:
        for i, st in enumerate(body):
            nxt = body[i + 1].sid if i + 1 < len(body) else follow
            self._build_stmt(st, nxt)

    def _build_stmt(self, st: Stmt, nxt: int) -> None:
        if isinstance(st, DoLoop):
            body_first = self._first_of(st.body, st.sid)
            self.cfg.add_edge(st.sid, body_first)
            self.cfg.add_edge(st.sid, nxt)  # zero-trip exit
            self._build_block(st.body, st.sid)  # back edge from last stmt
            return
        if isinstance(st, If):
            has_else = any(cond is None for cond, _ in st.arms)
            for cond, arm_body in st.arms:
                arm_first = self._first_of(arm_body, nxt)
                self.cfg.add_edge(st.sid, arm_first)
                self._build_block(arm_body, nxt)
            if not has_else:
                self.cfg.add_edge(st.sid, nxt)
            return
        if isinstance(st, GotoStmt):
            target = self.labels.get(st.target)
            if target is None:
                # Unresolved label: fall through so analyses stay sound-ish
                # rather than crashing on partial programs.
                self.cfg.add_edge(st.sid, nxt)
            else:
                self.cfg.add_edge(st.sid, target)
            return
        if isinstance(st, (ReturnStmt, StopStmt)):
            self.cfg.add_edge(st.sid, EXIT)
            return
        self.cfg.add_edge(st.sid, nxt)


def build_cfg(unit: ProcedureUnit) -> CFG:
    """Build the statement-level CFG of ``unit`` (sids must be assigned)."""

    return _Builder(unit).build()
