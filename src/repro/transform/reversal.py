"""Loop reversal.

Running iterations in the opposite order flips the sign of every carried
direction at the loop's level, so reversal is safe exactly when the loop
carries no dependence (all its vectors are '=' at that level) and does
no I/O (which would come out in reverse) and cannot leave early.
Reversal is rarely useful alone; it enables fusion/interchange in
combination.
"""

from __future__ import annotations

from ..fortran.ast_nodes import DoLoop, Num, UnOp, copy_expr
from .base import (
    Advice,
    TransformContext,
    Transformation,
    TransformError,
    hard_obstacles,
)


class LoopReversal(Transformation):
    name = "reverse"

    def diagnose(self, ctx: TransformContext, loop: DoLoop = None, **kwargs) -> Advice:
        if loop is None:
            return Advice.no("no loop selected")
        info = ctx.analysis.loop_info.get(loop.sid)
        if info is None:
            return Advice.no("selection is not a DO loop of this procedure")
        carried = [d for d in info.carried if d.blocks_parallelization]
        if carried:
            return Advice.unsafe(
                f"loop carries {len(carried)} dependence(s); reversal would "
                "reverse their direction"
            )
        hard = hard_obstacles(info)
        if hard:
            return Advice.unsafe("; ".join(hard))
        return Advice.yes("no carried dependences", profitable=False)

    def apply(self, ctx: TransformContext, loop: DoLoop = None, **kwargs) -> str:
        advice = self.diagnose(ctx, loop=loop)
        if not advice.ok:
            raise TransformError(f"reverse: {advice.describe()}")
        old_start, old_end = loop.start, loop.end
        loop.start, loop.end = old_end, old_start
        step = loop.step if loop.step is not None else Num(loop.line, 1)
        if isinstance(step, UnOp) and step.op == "-":
            loop.step = step.operand  # −(−s) = s
        elif isinstance(step, Num) and step.value == 1:
            loop.step = UnOp(loop.line, "-", Num(loop.line, 1))
        else:
            loop.step = UnOp(loop.line, "-", copy_expr(step))
        return f"reversed loop {loop.var}"
