"""Statement-level reordering.

Two adjacent statements may be interchanged when no dependence connects
them (in either direction).  Ped offered statement interchange to expose
distribution/fusion opportunities and tidy transformed code.
"""

from __future__ import annotations

from ..fortran.ast_nodes import IOStmt, Stmt, walk_statements
from .base import Advice, TransformContext, Transformation, TransformError, find_parent


class StatementInterchange(Transformation):
    name = "swap"

    def diagnose(self, ctx: TransformContext, stmt: Stmt = None, **kwargs) -> Advice:
        """Diagnose swapping ``stmt`` with the statement after it."""

        if stmt is None:
            return Advice.no("no statement selected")
        where = find_parent(ctx.unit, stmt)
        if where is None:
            return Advice.no("statement not found in this procedure")
        body, idx = where
        if idx + 1 >= len(body):
            return Advice.no("no statement follows the selection")
        nxt = body[idx + 1]
        if _does_io(stmt) and _does_io(nxt):
            return Advice.unsafe(
                "both statements do I/O: swapping them reorders the "
                "program's input or output"
            )
        a_sids = {s.sid for s in walk_statements([stmt])}
        b_sids = {s.sid for s in walk_statements([nxt])}
        graph = ctx.analysis.graph
        connecting = graph.edges_between(a_sids, b_sids) + graph.edges_between(
            b_sids, a_sids
        )
        for dep in connecting:
            if not dep.blocks_parallelization:
                continue
            if dep.loop_independent:
                return Advice.unsafe(
                    f"{dep.kind} dependence on {dep.var} connects the two "
                    "statements"
                )
        return Advice.yes("no dependence between the statements")

    def apply(self, ctx: TransformContext, stmt: Stmt = None, **kwargs) -> str:
        advice = self.diagnose(ctx, stmt=stmt)
        if not advice.ok:
            raise TransformError(f"swap: {advice.describe()}")
        where = find_parent(ctx.unit, stmt)
        assert where is not None
        body, idx = where
        body[idx], body[idx + 1] = body[idx + 1], body[idx]
        return f"swapped statements at lines {stmt.line} and {body[idx].line}"


def _does_io(stmt: Stmt) -> bool:
    return any(isinstance(s, IOStmt) for s in walk_statements([stmt]))
