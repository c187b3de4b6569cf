"""Scalar expansion.

A scalar ``t`` that is written and read inside a loop creates anti and
output dependences between iterations even when each iteration's value is
independent.  Expansion replaces ``t`` with a fresh array indexed by the
loop variable, breaking those dependences outright (Blume–Eigenmann found
scalar expansion "the only transformation that consistently improved
performance").  When the scalar is live after the loop, a copy-out of the
last element preserves semantics.
"""

from __future__ import annotations


from ..fortran.ast_nodes import (
    ArrayRef,
    Assign,
    DoLoop,
    Entity,
    TypeDecl,
    VarRef,
    copy_expr,
    walk_statements,
)
from ..fortran.symbols import SymbolTable
from .base import Advice, TransformContext, Transformation, TransformError, find_parent
from .subst import map_scalar_to_array


class ScalarExpansion(Transformation):
    name = "expand"

    def diagnose(
        self, ctx: TransformContext, loop: DoLoop = None, var: str = "", **kwargs
    ) -> Advice:
        if loop is None or not isinstance(loop, DoLoop):
            return Advice.no("no DO loop selected")
        if not var:
            return Advice.no("no scalar selected for expansion")
        var = var.lower()
        table: SymbolTable = ctx.unit.symtab  # type: ignore[assignment]
        sym = table.get(var)
        if sym is None or sym.is_array:
            return Advice.no(f"{var} is not a scalar of this procedure")
        if var == loop.var:
            return Advice.no("cannot expand the loop control variable")
        assigned = False
        from ..analysis.defuse import stmt_defs

        for st in walk_statements(loop.body):
            must, _ = stmt_defs(st, table)
            if var in must:
                assigned = True
        if not assigned:
            return Advice.no(f"{var} is not assigned inside the loop")
        # Expansion needs a known extent for the expansion array: the loop
        # bounds must be affine in visible symbols.
        info = ctx.analysis.loop_info.get(loop.sid)
        killed = {p.name for p in info.privatizable} if info else set()
        reasons = ["breaks anti/output dependences on " + var]
        if var not in killed:
            reasons.append(
                f"{var} is upward exposed in the body: first iteration reads "
                "the pre-loop value — expansion keeps it via t$(lo−1) "
                "semantics only if the body assigns before use; verify"
            )
        live_after = var in ctx.analysis.live_out.get(loop.sid, frozenset())
        if live_after:
            reasons.append("live after loop: last-value copy-out added")
        return Advice(True, True, True, reasons)

    def apply(
        self, ctx: TransformContext, loop: DoLoop = None, var: str = "", **kwargs
    ) -> str:
        advice = self.diagnose(ctx, loop=loop, var=var)
        if not advice.ok:
            raise TransformError(f"expand: {advice.describe()}")
        var = var.lower()
        table: SymbolTable = ctx.unit.symtab  # type: ignore[assignment]
        array_name = _fresh(table, var + "x")
        # Declare the expansion array with the loop's upper bound extent.
        decl = TypeDecl(
            loop.line,
            None,
            -1,
            table.ensure(var).typename,
            [Entity(array_name, [(None, copy_expr(loop.end))], loop.line)],
        )
        ctx.unit.decls.append(decl)
        sym = table.ensure(array_name)
        sym.typename = table.ensure(var).typename
        sym.dims = [(None, copy_expr(loop.end))]
        map_scalar_to_array(loop.body, var, array_name, VarRef(0, loop.var))
        summary = f"expanded scalar {var} into {array_name}({loop.var})"
        live_after = var in ctx.analysis.live_out.get(loop.sid, frozenset())
        if live_after:
            where = find_parent(ctx.unit, loop)
            if where is not None:
                body_list, index = where
                copy_out = Assign(
                    loop.line,
                    None,
                    -1,
                    VarRef(0, var),
                    ArrayRef(0, array_name, [copy_expr(loop.end)]),
                )
                body_list.insert(index + 1, copy_out)
                summary += "; last value copied out"
        return summary


def _fresh(table: SymbolTable, base: str) -> str:
    name = base
    k = 1
    while table.get(name) is not None:
        name = f"{base}{k}"
        k += 1
    return name
