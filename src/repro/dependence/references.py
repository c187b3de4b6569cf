"""Array reference collection for dependence testing.

For every DO loop we gather the :class:`ArrayAccess` records inside its
body: ordinary subscripted references from assignments/conditions, the
implicit accesses of I/O statements, and — when an interprocedural section
provider is available — *section accesses* summarising what a procedure
call reads/writes of each array actual.  Each access knows its enclosing
loop stack so the tester can determine the common nest of a pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..fortran.ast_nodes import (
    ArrayRef,
    Assign,
    CallStmt,
    DoLoop,
    Expr,
    If,
    IOStmt,
    Num,
    ProcedureUnit,
    Stmt,
    VarRef,
    walk_expr,
)


@dataclass
class SectionDim:
    """One dimension of a summarised (call-site) array access.

    ``lo``/``hi`` are expressions in caller terms; a single-point dimension
    has ``lo is hi``.  ``full`` marks a dimension the callee may touch in
    its entirety (unknown bounds).
    """

    lo: Optional[Expr] = None
    hi: Optional[Expr] = None
    full: bool = False

    @property
    def is_point(self) -> bool:
        return not self.full and self.lo is not None and self.lo is self.hi


@dataclass
class ArrayAccess:
    """One array access relevant to dependence testing.

    ``subs`` holds the subscript expressions for an ordinary element
    reference; ``section`` holds per-dimension ranges for a call-site
    summary access (exactly one of the two is set).  ``nest`` is the stack
    of enclosing DO loops from outermost to innermost.
    """

    array: str
    sid: int
    stmt: Stmt
    is_write: bool
    nest: Tuple[DoLoop, ...]
    subs: Optional[List[Expr]] = None
    section: Optional[List[SectionDim]] = None
    line: int = 0
    #: Lazily computed canonical signature / constant-dimension caches
    #: (see :meth:`signature` and :meth:`const_dims`).  Never compared.
    _sig: Optional[Tuple[tuple, frozenset]] = field(
        default=None, repr=False, compare=False
    )
    _const_dims: Optional[Tuple[Tuple[int, int, int], ...]] = field(
        default=None, repr=False, compare=False
    )
    #: Lazily computed :meth:`point_rank` (-1 = not all-point).
    _points: Optional[int] = field(default=None, repr=False, compare=False)

    def common_nest(self, other: "ArrayAccess") -> Tuple[DoLoop, ...]:
        common: List[DoLoop] = []
        for a, b in zip(self.nest, other.nest):
            if a is b:
                common.append(a)
            else:
                break
        return tuple(common)

    def signature(self) -> Tuple[tuple, frozenset]:
        """Canonical, hashable shape of this access plus the variable
        names it mentions.

        The shape spells out every subscript (or section bound) as
        printed source text, so two accesses with the same signature put
        *identical inputs* in front of the dependence tester; the name
        set over-approximates which constant-environment entries can
        influence the affine extraction.  Computed once per access.
        """

        if self._sig is None:
            names: List[str] = []

            def scan(expr: Expr) -> str:
                from ..fortran.printer import expr_to_str

                for node in walk_expr(expr):
                    if isinstance(node, VarRef):
                        names.append(node.name)
                    elif isinstance(node, ArrayRef):
                        names.append(node.name)
                return expr_to_str(expr)

            if self.subs is not None:
                shape: tuple = ("subs", tuple(scan(e) for e in self.subs))
            else:
                dims = []
                for d in self.section or []:
                    if d.full:
                        dims.append(("full",))
                    else:
                        dims.append(
                            (
                                "range",
                                scan(d.lo) if d.lo is not None else None,
                                scan(d.hi)
                                if d.hi is not None and d.hi is not d.lo
                                else "=lo",
                                d.is_point,
                            )
                        )
                shape = ("section", tuple(dims))
            self._sig = (shape, frozenset(names))
        return self._sig

    def const_dims(self) -> Tuple[Tuple[int, int, int], ...]:
        """Constant-range dimensions, for cheap disjointness pruning.

        Sparse: one ``(dim_index, lo, hi)`` triple per dimension that is
        a literal integer subscript (or a section dimension with literal
        integer bounds), ascending by index — most accesses have none,
        so the pruner's common case is a single truth test.  Computed
        once per access.
        """

        if self._const_dims is None:
            out: List[Tuple[int, int, int]] = []
            if self.subs is not None:
                for pos, e in enumerate(self.subs):
                    if isinstance(e, Num) and isinstance(e.value, int):
                        out.append((pos, e.value, e.value))
            else:
                for pos, d in enumerate(self.section or []):
                    lo = hi = None
                    if not d.full:
                        if isinstance(d.lo, Num) and isinstance(d.lo.value, int):
                            lo = d.lo.value
                        if isinstance(d.hi, Num) and isinstance(d.hi.value, int):
                            hi = d.hi.value
                    if lo is not None and hi is not None and lo <= hi:
                        out.append((pos, lo, hi))
            self._const_dims = tuple(out)
        return self._const_dims

    def point_rank(self) -> int:
        """Dimension count when every position is a single point.

        Element references and all-point sections have a rank (their
        dimension count); a full or true-range section dimension yields
        ``-1``.  Two accesses pair "classically" — without RANGE/FULL
        positions — iff both ranks are equal and ≥ 0.  Computed once.
        """

        rank = self._points
        if rank is None:
            if self.subs is not None:
                rank = len(self.subs)
            else:
                dims = self.section or []
                if all(not d.full and d.is_point for d in dims):
                    rank = len(dims)
                else:
                    rank = -1
            self._points = rank
        return rank


#: Provider turning a call statement into summary accesses.  Returns None
#: when no summary is available (the caller falls back to conservative
#: whole-array may-touch behaviour).
SectionProvider = Callable[[CallStmt, ProcedureUnit], Optional[List[ArrayAccess]]]


@dataclass
class LoopNest:
    """A DO loop with its nesting context inside a procedure."""

    loop: DoLoop
    depth: int  # 1-based nesting depth within the procedure
    parents: Tuple[DoLoop, ...]  # outer loops, outermost first

    @property
    def index_vars(self) -> Tuple[str, ...]:
        return tuple(p.var for p in self.parents) + (self.loop.var,)


def collect_loops(unit: ProcedureUnit) -> List[LoopNest]:
    """All DO loops of ``unit`` in lexical order with nesting info."""

    out: List[LoopNest] = []

    def visit(body: Sequence[Stmt], parents: Tuple[DoLoop, ...]) -> None:
        for st in body:
            if isinstance(st, DoLoop):
                out.append(LoopNest(st, len(parents) + 1, parents))
                visit(st.body, parents + (st,))
            elif isinstance(st, If):
                for _, arm in st.arms:
                    visit(arm, parents)

    visit(unit.body, ())
    return out


def _expr_accesses(
    expr: Expr,
    sid: int,
    stmt: Stmt,
    nest: Tuple[DoLoop, ...],
    is_write: bool,
) -> Iterator[ArrayAccess]:
    for node in walk_expr(expr):
        if isinstance(node, ArrayRef):
            yield ArrayAccess(
                node.name,
                sid,
                stmt,
                is_write,
                nest,
                subs=list(node.subs),
                line=node.line,
            )


def collect_refs(
    unit: ProcedureUnit,
    section_provider: Optional[SectionProvider] = None,
) -> List[ArrayAccess]:
    """Every array access in ``unit`` with its loop nest.

    Call statements contribute either precise section accesses (when the
    ``section_provider`` yields a summary) or conservative full-array
    read+write accesses for each array actual and each COMMON array.
    """

    out: List[ArrayAccess] = []
    table = unit.symtab

    def conservative_call(st: CallStmt, nest: Tuple[DoLoop, ...]) -> None:
        touched: List[str] = []
        for arg in st.args:
            if isinstance(arg, VarRef) and table is not None:
                sym = table.get(arg.name)  # type: ignore[union-attr]
                if sym is not None and sym.is_array:
                    touched.append(arg.name)
            elif isinstance(arg, ArrayRef):
                touched.append(arg.name)
        if table is not None:
            from ..fortran.symbols import COMMON

            for sym in table.symbols.values():  # type: ignore[union-attr]
                if sym.storage == COMMON and sym.is_array:
                    touched.append(sym.name)
        for name in touched:
            sym = table.get(name) if table is not None else None  # type: ignore[union-attr]
            rank = sym.rank if sym is not None and sym.is_array else 1
            dims = [SectionDim(full=True) for _ in range(rank)]
            for w in (False, True):
                out.append(
                    ArrayAccess(
                        name, st.sid, st, w, nest, section=list(dims), line=st.line
                    )
                )

    def visit(body: Sequence[Stmt], nest: Tuple[DoLoop, ...]) -> None:
        for st in body:
            if isinstance(st, Assign):
                if isinstance(st.target, ArrayRef):
                    out.append(
                        ArrayAccess(
                            st.target.name,
                            st.sid,
                            st,
                            True,
                            nest,
                            subs=list(st.target.subs),
                            line=st.line,
                        )
                    )
                    for sub in st.target.subs:
                        out.extend(_expr_accesses(sub, st.sid, st, nest, False))
                out.extend(_expr_accesses(st.expr, st.sid, st, nest, False))
            elif isinstance(st, DoLoop):
                for e in (st.start, st.end, st.step):
                    if e is not None:
                        out.extend(_expr_accesses(e, st.sid, st, nest, False))
                visit(st.body, nest + (st,))
            elif isinstance(st, If):
                for cond, arm in st.arms:
                    if cond is not None:
                        out.extend(_expr_accesses(cond, st.sid, st, nest, False))
                    visit(arm, nest)
            elif isinstance(st, CallStmt):
                for arg in st.args:
                    out.extend(_expr_accesses(arg, st.sid, st, nest, False))
                summary = (
                    section_provider(st, unit) if section_provider is not None else None
                )
                if summary is not None:
                    for acc in summary:
                        acc.sid = st.sid
                        acc.stmt = st
                        acc.nest = nest
                        out.append(acc)
                else:
                    conservative_call(st, nest)
            elif isinstance(st, IOStmt):
                for e in list(st.spec) + list(st.items):
                    write = st.kind == "read" and e in st.items
                    if isinstance(e, ArrayRef):
                        out.append(
                            ArrayAccess(
                                e.name,
                                st.sid,
                                st,
                                write,
                                nest,
                                subs=list(e.subs),
                                line=st.line,
                            )
                        )
                        for sub in e.subs:
                            out.extend(_expr_accesses(sub, st.sid, st, nest, False))
                    else:
                        out.extend(_expr_accesses(e, st.sid, st, nest, False))

    visit(unit.body, ())
    return out
