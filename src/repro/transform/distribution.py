"""Loop distribution (loop fission).

Partition the loop body's statements into the strongly connected
components of its dependence subgraph; each SCC becomes its own loop, in a
topological order of the condensation.  Statements not involved in any
recurrence separate into loops that may individually parallelize even
when the original loop could not — the classic way to isolate a serial
recurrence.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..fortran.ast_nodes import DoLoop, copy_expr, walk_statements
from .base import (
    Advice,
    TransformContext,
    Transformation,
    TransformError,
    find_parent,
    hard_obstacles,
)


class LoopDistribution(Transformation):
    name = "distribute"

    def diagnose(self, ctx: TransformContext, loop: DoLoop = None, **kwargs) -> Advice:
        if loop is None:
            return Advice.no("no loop selected")
        info = ctx.analysis.loop_info.get(loop.sid)
        if info is None:
            return Advice.no("selection is not a DO loop of this procedure")
        groups = self._partition(ctx, loop)
        if groups is None:
            return Advice.no("control flow in body prevents distribution")
        if len(groups) < 2:
            return Advice.no(
                "body is one dependence group: nothing to distribute"
            )
        hard = hard_obstacles(info)
        if hard:
            return Advice.unsafe("; ".join(hard))
        return Advice.yes(
            f"body splits into {len(groups)} independent loops",
        )

    def _partition(self, ctx: TransformContext, loop: DoLoop):
        """Top-level statement groups in topological order, or None."""

        top = loop.body
        # Map every contained statement sid to its top-level statement.
        owner: Dict[int, int] = {}
        for idx, st in enumerate(top):
            for inner in walk_statements([st]):
                owner[inner.sid] = idx
        n = len(top)
        table = ctx.unit.symtab
        succ: Dict[int, Set[int]] = {i: set() for i in range(n)}
        # Only edges with both endpoints inside the body can constrain the
        # partition; the endpoint indices deliver exactly those.
        for dep in ctx.analysis.graph.edges_within(owner):
            a = owner.get(dep.src_sid)
            b = owner.get(dep.dst_sid)
            if a is None or b is None or a == b:
                continue
            if dep.kind == "control":
                return None  # cross-statement control flow: bail out
            if not dep.blocks_parallelization:
                continue
            sym = table.get(dep.var) if table is not None else None
            is_scalar = sym is None or not sym.is_array
            if is_scalar and dep.var and dep.var != loop.var:
                # A scalar carries only its most recent value: statements
                # communicating through one must stay in the same loop
                # (splitting them would hand every iteration of the later
                # loop the *final* value instead of its own).  Scalar
                # expansion is the transformation that relaxes this.
                succ[a].add(b)
                succ[b].add(a)
                continue
            # Array dependences constrain statement order across the
            # distributed loops; loop-carried backward deps force the two
            # statements into one SCC (edge both ways).
            succ[a].add(b)
            if dep.loop_carried and b < a:
                # A carried dep from a later statement back to an earlier
                # one creates a recurrence between the groups.
                succ[b].add(a)
        sccs = _tarjan_ints(n, succ)
        return sccs

    def apply(self, ctx: TransformContext, loop: DoLoop = None, **kwargs) -> str:
        advice = self.diagnose(ctx, loop=loop)
        if not advice.ok:
            raise TransformError(f"distribute: {advice.describe()}")
        groups = self._partition(ctx, loop)
        where = find_parent(ctx.unit, loop)
        if where is None:
            raise TransformError("distribute: loop not found in unit")
        body_list, index = where
        new_loops: List[DoLoop] = []
        for group in groups:
            stmts = [loop.body[i] for i in sorted(group)]
            new_loops.append(
                DoLoop(
                    loop.line,
                    None,
                    -1,
                    loop.var,
                    copy_expr(loop.start),
                    copy_expr(loop.end),
                    copy_expr(loop.step) if loop.step is not None else None,
                    stmts,
                )
            )
        body_list[index : index + 1] = new_loops
        return f"distributed into {len(new_loops)} loops"


def _tarjan_ints(n: int, succ: Dict[int, Set[int]]) -> List[Set[int]]:
    """SCCs of an integer graph in topological order of the condensation."""

    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack: Set[int] = set()
    out: List[Set[int]] = []
    counter = [0]

    def visit(v: int) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in sorted(succ.get(v, ())):
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            scc: Set[int] = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                scc.add(w)
                if w == v:
                    break
            out.append(scc)

    for v in range(n):
        if v not in index:
            visit(v)
    # Tarjan emits SCCs in reverse topological order; statements must keep
    # dependence order, so reverse — then stably order groups that are
    # mutually unconstrained by their original text position.
    out.reverse()
    out.sort(key=min)
    # Re-check: sorting by min original position is safe because any data
    # dependence between groups goes from a textually earlier statement to
    # a later one after the carried-backward case merged them into one SCC.
    return out
