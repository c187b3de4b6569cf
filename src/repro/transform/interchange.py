"""Loop interchange.

Swapping two perfectly nested loops permutes every dependence's
direction vector; the interchange is safe iff no vector becomes
lexicographically negative — equivalently, no dependence carried on the
outer loop has direction ``(<, >)`` (or distance signs ``(+, −)``) over
the pair being swapped — and the nest does no I/O and cannot leave
early, since the iterations run in a new order.

Interchange is the workhorse for granularity: moving a parallel inner
loop outward multiplies the work per fork ("A solution that combines the
granularity of the outer loop with the parallelism of the inner loop is
to perform loop interchange").
"""

from __future__ import annotations

from typing import List

from ..fortran.ast_nodes import DoLoop
from .base import (
    Advice,
    TransformContext,
    Transformation,
    TransformError,
    hard_obstacles,
    perfect_nest,
)


class LoopInterchange(Transformation):
    name = "interchange"

    def diagnose(self, ctx: TransformContext, loop: DoLoop = None, **kwargs) -> Advice:
        """Diagnose interchanging ``loop`` with the loop immediately inside."""

        if loop is None:
            return Advice.no("no loop selected")
        nest = perfect_nest(loop)
        if len(nest) < 2:
            return Advice.no(
                "loop body is not a single nested DO (interchange needs a "
                "perfect 2-nest)"
            )
        outer, inner = nest[0], nest[1]
        # Inner loop bounds must not depend on the outer index (that would
        # be a triangular nest; interchange then needs bound rewriting we
        # diagnose as inapplicable, matching Ped's behaviour).
        from ..fortran.ast_nodes import walk_expr, VarRef

        for e in (inner.start, inner.end, inner.step):
            if e is None:
                continue
            for node in walk_expr(e):
                if isinstance(node, VarRef) and node.name == outer.var:
                    return Advice.no(
                        f"inner bounds depend on {outer.var}: triangular nest"
                    )
        bad = self._illegal_deps(ctx, outer, inner)
        if bad:
            return Advice.unsafe(
                "interchange would reverse dependences: "
                + ", ".join(bad[:3])
            )
        info = ctx.analysis.loop_info.get(outer.sid)
        if info is None:
            return Advice.no("selection is not a DO loop of this procedure")
        hard = hard_obstacles(info)
        if hard:
            return Advice.unsafe("; ".join(hard))
        profitable = True
        reasons = ["moves parallelism outward / improves granularity"]
        return Advice(True, True, profitable, reasons)

    def _illegal_deps(
        self, ctx: TransformContext, outer: DoLoop, inner: DoLoop
    ) -> List[str]:
        bad: List[str] = []
        table = ctx.unit.symtab
        graph = ctx.analysis.graph
        # The carrier index delivers exactly the carried data edges of the
        # two loops being swapped (control / loop-independent edges never
        # appear in it).
        for dep in graph.carried_by_sid(outer.sid) + graph.carried_by_sid(
            inner.sid
        ):
            if not dep.blocks_parallelization:
                continue
            if dep.reason:
                continue  # reduction/induction recurrences: reorderable
            sids = dep.nest_sids
            # A carried recurrence through a *scalar* folds over the
            # traversal order itself; interchanging reorders the traversal
            # and changes which value each iteration observes.  Killed
            # scalars carry nothing (no edges); reductions/inductions are
            # order-insensitive by recognition (reason set).
            sym = table.get(dep.var) if table is not None else None
            if dep.var and (sym is None or not sym.is_array):
                bad.append(
                    f"scalar recurrence on {dep.var} {dep.vector_str()}"
                )
                continue
            if outer.sid not in sids or inner.sid not in sids:
                continue
            ko = sids.index(outer.sid) + 1
            ki = sids.index(inner.sid) + 1
            d_out = dep.direction_at(ko)
            d_in = dep.direction_at(ki)
            if d_out == "<" and d_in == ">":
                bad.append(f"{dep.kind} dep on {dep.var} {dep.vector_str()}")
            elif d_out == "*" and d_in in (">", "*"):
                bad.append(
                    f"{dep.kind} dep on {dep.var} {dep.vector_str()} (unknown direction)"
                )
        return bad

    def apply(self, ctx: TransformContext, loop: DoLoop = None, **kwargs) -> str:
        advice = self.diagnose(ctx, loop=loop)
        if not advice.ok:
            raise TransformError(f"interchange: {advice.describe()}")
        nest = perfect_nest(loop)
        outer, inner = nest[0], nest[1]
        # Swap the loop headers in place: exchanging control variables,
        # bounds and steps leaves the bodies untouched.
        outer.var, inner.var = inner.var, outer.var
        outer.start, inner.start = inner.start, outer.start
        outer.end, inner.end = inner.end, outer.end
        outer.step, inner.step = inner.step, outer.step
        outer.parallel, inner.parallel = inner.parallel, outer.parallel
        outer.private, inner.private = inner.private, outer.private
        outer.reductions, inner.reductions = inner.reductions, outer.reductions
        return f"interchanged loops {inner.var} and {outer.var}"
