"""Bounded regular section analysis (Havlak–Kennedy).

For every procedure we summarise the *portions* of each externally visible
array it reads and writes, as per-dimension bounded sections
``[lo : hi]`` whose bounds are affine in the procedure's formals and
COMMON scalars.  At a call site the summary translates into caller terms,
giving the dependence analyzer precise per-call array accesses instead of
"may touch everything".

This is the Table 3 "sections" lever: with it, ``DO J … CALL SMOOTH(A(1,J))``
exposes that each iteration touches only column ``J`` of ``A``, so the
loop carries no dependence through ``A`` and parallelizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.symbolic import Linear, affine, linear_of_expr
from ..fortran.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    DoLoop,
    Expr,
    If,
    IOStmt,
    Num,
    ProcedureUnit,
    Stmt,
    UnOp,
    VarRef,
)
from ..fortran.symbols import COMMON, FORMAL, SymbolTable
from .callgraph import CallGraph, CallSite
from .modref import Location, _locate, _name_at
from ..dependence.references import ArrayAccess, SectionDim

#: A dimension of a summarised access, in callee terms.
#: ("point", Linear) | ("range", lo Linear, hi Linear) | ("full",)
DimSummary = Tuple


@dataclass
class AccessRecord:
    """One summarised access to an external array inside a procedure."""

    is_write: bool
    dims: List[DimSummary]


@dataclass
class ArraySectionSummary:
    """All summarised accesses of one external array location."""

    location: Location
    rank: int
    records: List[AccessRecord] = field(default_factory=list)

    def collapse_if_large(self, limit: int = 8) -> None:
        if len(self.records) > limit:
            reads = any(not r.is_write for r in self.records)
            writes = any(r.is_write for r in self.records)
            full = [("full",)] * self.rank
            self.records = []
            if reads:
                self.records.append(AccessRecord(False, list(full)))
            if writes:
                self.records.append(AccessRecord(True, list(full)))


@dataclass
class SectionInfo:
    """Per-unit section summaries keyed by external location.

    ``formals`` is the unit's signature — each formal in declaration
    order with its is-array flag.  A call site binds the scalar formals
    to its actuals through it, so a caller's sections read nothing of
    a callee beyond this summary.
    """

    arrays: Dict[Location, ArraySectionSummary] = field(default_factory=dict)
    formals: Tuple[Tuple[str, bool], ...] = ()


def linear_to_expr(lin: Linear) -> Optional[Expr]:
    """Rebuild an AST expression from a Linear form (None if impossible)."""

    terms: List[Expr] = []
    for atom, coeff in lin.coeffs:
        if atom.startswith("@") or coeff.denominator != 1:
            return None
        c = int(coeff)
        base: Expr = VarRef(0, atom)
        if c == 1:
            terms.append(base)
        elif c == -1:
            terms.append(UnOp(0, "-", base))
        else:
            terms.append(BinOp(0, "*", Num(0, abs(c)), base))
            if c < 0:
                terms[-1] = UnOp(0, "-", terms[-1])
    if lin.const.denominator != 1:
        return None
    const = int(lin.const)
    expr: Optional[Expr] = None
    for t in terms:
        expr = t if expr is None else BinOp(0, "+", expr, t)
    if const != 0 or expr is None:
        cexpr: Expr = Num(0, abs(const)) if const >= 0 else UnOp(0, "-", Num(0, abs(const)))
        if const < 0:
            cexpr = UnOp(0, "-", Num(0, abs(const)))
        expr = cexpr if expr is None else BinOp(
            0, "+" if const >= 0 else "-", expr, Num(0, abs(const))
        )
    return expr


def compute_sections(cg: CallGraph) -> Dict[str, SectionInfo]:
    """Bottom-up section summaries for every unit."""

    out: Dict[str, SectionInfo] = {name: SectionInfo() for name in cg.units}
    for scc in cg.sccs_bottom_up():
        changed = True
        passes = 0
        while changed and passes < 10:
            changed = False
            passes += 1
            for name in scc:
                new = _unit_sections(cg.units[name], cg, out)
                if _differs(new, out[name]):
                    out[name] = new
                    changed = True
    return out


def _differs(a: SectionInfo, b: SectionInfo) -> bool:
    def key(info: SectionInfo):
        return info.formals, {
            loc: [(r.is_write, tuple(map(_dim_key, r.dims))) for r in s.records]
            for loc, s in info.arrays.items()
        }

    return key(a) != key(b)


def _dim_key(dim: DimSummary):
    if dim[0] == "full":
        return ("full",)
    if dim[0] == "point":
        return ("point", dim[1])
    return ("range", dim[1], dim[2])


def _unit_sections(
    unit: ProcedureUnit,
    cg: CallGraph,
    summaries: Dict[str, SectionInfo],
) -> SectionInfo:
    table: SymbolTable = unit.symtab  # type: ignore[assignment]
    info = SectionInfo(
        formals=tuple((f, table.symbols[f].is_array) for f in unit.formals)
    )
    sites_by_sid: Dict[int, List[CallSite]] = {}
    for site in cg.sites_in(unit.name):
        sites_by_sid.setdefault(site.sid, []).append(site)

    def record(name: str, dims: List[DimSummary], is_write: bool) -> None:
        loc = _locate(name, table)
        if loc is None:
            return  # local array: invisible outside
        sym = table.get(name)
        rank = sym.rank if sym is not None else len(dims)
        clean: List[DimSummary] = []
        for dim in dims:
            # Scrub anything whose bounds mention names invisible to
            # callers (locals, loop variables) — callers cannot interpret
            # them, so the dimension degrades to "full".
            if dim[0] == "point" and _mentions_locals(dim[1], table, ()):
                clean.append(("full",))
            elif dim[0] == "range" and (
                _mentions_locals(dim[1], table, ())
                or _mentions_locals(dim[2], table, ())
            ):
                clean.append(("full",))
            else:
                clean.append(dim)
        summary = info.arrays.setdefault(loc, ArraySectionSummary(loc, rank))
        summary.records.append(AccessRecord(is_write, clean))
        summary.collapse_if_large()

    def dims_of_ref(ref: ArrayRef, loop_stack: List[DoLoop]) -> List[DimSummary]:
        dims: List[DimSummary] = []
        loop_vars = [lp.var for lp in loop_stack]
        for sub in ref.subs:
            got = affine(sub, loop_vars, table)
            if got is None:
                dims.append(("full",))
                continue
            coeffs, rem = got
            if _mentions_locals(rem, table, loop_vars):
                dims.append(("full",))
                continue
            used = [v for v, c in coeffs.items() if c != 0]
            if not used:
                dims.append(("point", rem))
                continue
            if len(used) == 1:
                var = used[0]
                c = coeffs[var]
                loop = next(lp for lp in loop_stack if lp.var == var)
                lo_l = linear_of_expr(loop.start, table)
                hi_l = linear_of_expr(loop.end, table)
                if _mentions_locals(lo_l, table, loop_vars) or _mentions_locals(
                    hi_l, table, loop_vars
                ):
                    dims.append(("full",))
                    continue
                a = rem + lo_l.scale(c)
                b = rem + hi_l.scale(c)
                if c > 0:
                    dims.append(("range", a, b))
                else:
                    dims.append(("range", b, a))
                continue
            dims.append(("full",))
        return dims

    def visit(body: List[Stmt], loop_stack: List[DoLoop]) -> None:
        for st in body:
            if isinstance(st, Assign):
                if isinstance(st.target, ArrayRef):
                    record(
                        st.target.name, dims_of_ref(st.target, loop_stack), True
                    )
                    for sub in st.target.subs:
                        _expr_reads(sub, loop_stack)
                _expr_reads(st.expr, loop_stack)
            elif isinstance(st, DoLoop):
                _expr_reads(st.start, loop_stack)
                _expr_reads(st.end, loop_stack)
                if st.step is not None:
                    _expr_reads(st.step, loop_stack)
                visit(st.body, loop_stack + [st])
            elif isinstance(st, If):
                for cond, arm in st.arms:
                    if cond is not None:
                        _expr_reads(cond, loop_stack)
                    visit(arm, loop_stack)
            elif isinstance(st, CallStmt):
                for site in sites_by_sid.get(st.sid, ()):
                    _fold_call(site, loop_stack)
                for arg in st.args:
                    if isinstance(arg, ArrayRef):
                        for sub in arg.subs:
                            _expr_reads(sub, loop_stack)
            elif isinstance(st, IOStmt):
                for e in list(st.spec) + list(st.items):
                    if isinstance(e, ArrayRef):
                        write = st.kind == "read"
                        record(e.name, dims_of_ref(e, loop_stack), write)
                    else:
                        _expr_reads(e, loop_stack)

    def _expr_reads(expr: Expr, loop_stack: List[DoLoop]) -> None:
        from ..fortran.ast_nodes import walk_expr

        for node in walk_expr(expr):
            if isinstance(node, ArrayRef):
                record(node.name, dims_of_ref(node, loop_stack), False)

    def _fold_call(site: CallSite, loop_stack: List[DoLoop]) -> None:
        callee_info = summaries.get(site.callee)
        if callee_info is None:
            return
        for summary in callee_info.arrays.values():
            for name, dims_list in _translate_summary(
                summary, site, callee_info.formals, unit
            ):
                for is_write, dims in dims_list:
                    # Re-express loop-variant points as ranges over the
                    # current loop stack where possible.
                    out_dims: List[DimSummary] = []
                    for dim in dims:
                        out_dims.append(
                            _widen_over_loops(dim, loop_stack, table)
                        )
                    record(name, out_dims, is_write)

    visit(unit.body, [])
    return info


def _mentions_locals(lin: Linear, table: SymbolTable, loop_vars) -> bool:
    """True if the Linear mentions names not visible outside the unit."""

    for atom in lin.atoms():
        if atom.startswith("@"):
            return True
        if atom in loop_vars:
            return True
        sym = table.get(atom)
        if sym is None:
            return True
        if sym.storage not in (FORMAL, COMMON, "parameter"):
            return True
    return False


def _widen_over_loops(dim: DimSummary, loop_stack, table) -> DimSummary:
    """Turn a point that varies with an enclosing loop into a range."""

    if dim[0] != "point":
        return dim
    lin: Linear = dim[1]
    loop_vars = {lp.var for lp in loop_stack}
    varying = [a for a in lin.atoms() if a in loop_vars]
    if not varying:
        return dim
    if len(varying) > 1:
        return ("full",)
    var = varying[0]
    c = lin.coeff(var)
    if c.denominator != 1:
        return ("full",)
    loop = next(lp for lp in loop_stack if lp.var == var)
    lo_l = linear_of_expr(loop.start, table)
    hi_l = linear_of_expr(loop.end, table)
    rest = lin.drop({var})
    a = rest + lo_l.scale(c)
    b = rest + hi_l.scale(c)
    return ("range", a, b) if c > 0 else ("range", b, a)


# ---------------------------------------------------------------------------
# Call-site translation into the caller's dependence analysis
# ---------------------------------------------------------------------------


def _scalar_binding(
    formals: Tuple[Tuple[str, bool], ...],
    site: CallSite,
    caller: ProcedureUnit,
) -> Dict[str, Linear]:
    """Map callee formal scalars (from the callee's signature) to caller
    Linear forms where possible."""

    binding: Dict[str, Linear] = {}
    caller_table: SymbolTable = caller.symtab  # type: ignore[assignment]
    for idx, (formal, is_array) in enumerate(formals):
        if idx >= len(site.args) or is_array:
            continue
        binding[formal] = linear_of_expr(site.args[idx], caller_table)
    return binding


def _subst(lin: Linear, binding: Dict[str, Linear]) -> Optional[Linear]:
    out = Linear.constant(lin.const)
    for atom, coeff in lin.coeffs:
        if atom in binding:
            out = out + binding[atom].scale(coeff)
        elif atom.startswith("@"):
            return None
        else:
            out = out + Linear.atom(atom, coeff)
    return out


def _translate_summary(
    summary: ArraySectionSummary,
    site: CallSite,
    formals: Tuple[Tuple[str, bool], ...],
    caller: ProcedureUnit,
):
    """Yield ``(caller_array_name, [(is_write, dims)])`` for one summary
    of a callee with signature ``formals``."""

    caller_table: SymbolTable = caller.symtab  # type: ignore[assignment]
    binding = _scalar_binding(formals, site, caller)
    loc = summary.location

    def translate_dims(record: AccessRecord) -> Optional[List[DimSummary]]:
        dims: List[DimSummary] = []
        for dim in record.dims:
            if dim[0] == "full":
                dims.append(("full",))
            elif dim[0] == "point":
                lin = _subst(dim[1], binding)
                dims.append(("point", lin) if lin is not None else ("full",))
            else:
                lo = _subst(dim[1], binding)
                hi = _subst(dim[2], binding)
                if lo is None or hi is None:
                    dims.append(("full",))
                else:
                    dims.append(("range", lo, hi))
        return dims

    if loc[0] == "formal":
        idx = loc[1]
        if idx is None or idx >= len(site.args):
            return
        arg = site.args[idx]
        if isinstance(arg, VarRef):
            sym = caller_table.get(arg.name)
            if sym is None or not sym.is_array:
                return
            if sym.rank != summary.rank:
                full = [("full",)] * sym.rank
                yield arg.name, [(r.is_write, list(full)) for r in summary.records]
                return
            yield arg.name, [
                (r.is_write, translate_dims(r)) for r in summary.records
            ]
            return
        if isinstance(arg, ArrayRef):
            sym = caller_table.get(arg.name)
            if sym is None or not sym.is_array:
                return
            # Offset pass: A(e1, …, ek) actual bound to a lower-rank formal.
            # Supported shape: formal rank r, array rank k ≥ r, with the
            # leading actual subscripts equal to the array's lower bounds
            # (offset 0); formal dims map to the leading array dims and the
            # trailing subscripts become points.
            r = summary.rank
            k = sym.rank
            if r > k:
                return
            lead_ok = True
            for d in range(r):
                lead = linear_of_expr(arg.subs[d], caller_table)
                lo_decl = sym.dims[d][0]
                lo_lin = (
                    linear_of_expr(lo_decl, caller_table)
                    if lo_decl is not None
                    else Linear.constant(1)
                )
                if (lead - lo_lin).constant_value() != 0:
                    lead_ok = False
            if not lead_ok:
                full = [("full",)] * k
                yield arg.name, [(rr.is_write, list(full)) for rr in summary.records]
                return
            out = []
            for rec in summary.records:
                dims = translate_dims(rec)
                if dims is None:
                    dims = [("full",)] * r
                for d in range(r, k):
                    dims.append(("point", linear_of_expr(arg.subs[d], caller_table)))
                out.append((rec.is_write, dims))
            yield arg.name, out
            return
        return
    if loc[0] == "common":
        site2 = CallSite(caller.name, site.callee, site.sid, site.args, site.line)
        name = _name_at(loc, site2, caller_table)
        if name is None:
            return
        sym = caller_table.get(name)
        if sym is None or not sym.is_array:
            return
        if sym.rank != summary.rank:
            full = [("full",)] * sym.rank
            yield name, [(r.is_write, list(full)) for r in summary.records]
            return
        yield name, [(r.is_write, translate_dims(r)) for r in summary.records]


def make_section_provider(
    cg: CallGraph,
    sections: Dict[str, SectionInfo],
    kills: Optional[Dict[str, object]] = None,
):
    """Build a :data:`SectionProvider` for the dependence driver.

    For each CALL it returns summarised :class:`ArrayAccess` records in
    caller terms; unknown callees return ``None`` (conservative fallback).
    With kill summaries, read records of arrays the callee kills are
    dropped: a killed array's reads are never upward exposed, so they
    cannot source cross-iteration dependences.
    """

    kills = kills or {}

    def provider(st: CallStmt, caller: ProcedureUnit) -> Optional[List[ArrayAccess]]:
        if st.name not in cg.units:
            return None
        info = sections.get(st.name)
        if info is None:
            return None
        killed_arrays = set(getattr(kills.get(st.name), "arrays", ()) or ())
        site = CallSite(caller.name, st.name, st.sid, list(st.args), st.line)
        out: List[ArrayAccess] = []
        for summary in info.arrays.values():
            if summary.location in killed_arrays:
                # Suppress the callee's reads: killed before use.
                summary = ArraySectionSummary(
                    summary.location,
                    summary.rank,
                    [r for r in summary.records if r.is_write],
                )
            for name, recs in _translate_summary(
                summary, site, info.formals, caller
            ):
                for is_write, dims in recs:
                    sect: List[SectionDim] = []
                    ok = True
                    for dim in dims:
                        if dim[0] == "full":
                            sect.append(SectionDim(full=True))
                        elif dim[0] == "point":
                            e = linear_to_expr(dim[1])
                            if e is None:
                                sect.append(SectionDim(full=True))
                            else:
                                sect.append(SectionDim(lo=e, hi=e))
                        else:
                            lo = linear_to_expr(dim[1])
                            hi = linear_to_expr(dim[2])
                            if lo is None or hi is None:
                                sect.append(SectionDim(full=True))
                            else:
                                sect.append(SectionDim(lo=lo, hi=hi))
                    if ok:
                        out.append(
                            ArrayAccess(
                                name, st.sid, st, is_write, (), section=sect,
                                line=st.line,
                            )
                        )
        return out

    return provider


#: Public aliases: one unit's section transfer function and the structural
#: change test, for incremental re-fixpointing by the engine.
unit_sections = _unit_sections
sections_differ = _differs
