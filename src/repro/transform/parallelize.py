"""Loop parallelization — the end goal of every Ped session.

Safety: the loop may run its iterations concurrently when no loop-carried
data dependence remains after discounting dependences removable by
privatization (killed scalars, killed arrays), recognised reductions and
auxiliary induction variables, and after honouring the user's dependence
markings (rejected edges do not block).  I/O statements and premature
exits stay sequential.

Profitability: a parallel loop must amortise its fork/join overhead; the
diagnosis consults the static performance estimator when available, and
otherwise falls back to a trip-count heuristic.
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
)


class Parallelize(Transformation):
    name = "parallelize"

    def diagnose(self, ctx: TransformContext, loop: DoLoop = None, **kwargs) -> Advice:
        if loop is None:
            return Advice.no("no loop selected")
        info = ctx.analysis.loop_info.get(loop.sid)
        if info is None:
            return Advice.no("selection is not a DO loop of this procedure")
        blocking = info.blocking_deps()
        reasons: List[str] = []
        if blocking:
            shown = ", ".join(
                f"{d.kind} dep on {d.var} {d.vector_str()}" for d in blocking[:4]
            )
            more = f" (+{len(blocking) - 4} more)" if len(blocking) > 4 else ""
            return Advice.unsafe(f"loop-carried dependences remain: {shown}{more}")
        hard = hard_obstacles(info)
        if hard:
            return Advice.unsafe("; ".join(hard))
        if info.privatizable:
            names = ", ".join(p.name for p in info.privatizable)
            reasons.append(f"privatizes scalars: {names}")
        if info.privatizable_arrays:
            reasons.append(
                "privatizes arrays: " + ", ".join(sorted(info.privatizable_arrays))
            )
        if info.reductions:
            reasons.append(
                "parallel reductions: " + ", ".join(r.var for r in info.reductions)
            )
        profitable, estimate_note = self._profitable(ctx, loop)
        if estimate_note:
            reasons.append(estimate_note)
        return Advice(True, True, profitable, reasons)

    def _profitable(self, ctx: TransformContext, loop: DoLoop):
        """Consult the static performance estimator: parallel execution
        must beat sequential under the machine model's fork/join cost —
        the paper's requested "guidance in selecting transformations"."""

        from ..perf.estimator import PerformanceEstimator

        est = PerformanceEstimator()
        ce = est.loop_estimate(loop, ctx.analysis)
        if ce.parallel < ce.sequential:
            return True, (
                f"estimated speedup {ce.speedup:.1f}x on "
                f"{est.machine.n_procs} procs"
            )
        return False, (
            f"estimated slowdown: fork/join ({est.machine.fork_join:.0f} "
            f"cycles) dominates {ce.sequential:.0f}-cycle loop"
        )

    def apply(self, ctx: TransformContext, loop: DoLoop = None, **kwargs) -> str:
        advice = self.diagnose(ctx, loop=loop)
        if not advice.ok:
            raise TransformError(f"parallelize: {advice.describe()}")
        info = ctx.analysis.loop_info[loop.sid]
        loop.parallel = True
        loop.private = sorted(
            {p.name for p in info.privatizable} | set(info.privatizable_arrays)
        )
        loop.reductions = [(r.op, r.var) for r in info.reductions]
        parts = [f"loop {loop.var} marked DOALL"]
        if loop.private:
            parts.append(f"private({', '.join(loop.private)})")
        if loop.reductions:
            parts.append(
                "reduction(" + ", ".join(f"{op}:{v}" for op, v in loop.reductions) + ")"
            )
        return "; ".join(parts)
