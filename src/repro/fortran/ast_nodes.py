"""AST node definitions for the Fortran 77 subset.

Every node is a plain dataclass carrying a 1-based ``line`` for diagnostics.
Statements additionally carry:

* ``label`` — the numeric statement label, or ``None``;
* ``sid`` — a stable statement id assigned by :func:`number_statements`,
  used as the key into control-flow graphs and dependence graphs.

Expressions are side-effect free in this subset (function calls are treated
as opaque by the analyses unless interprocedural information is available).
The parser produces :class:`NameArgs` for every ``name(arg, ...)`` form; the
binder (:mod:`repro.fortran.symbols`) rewrites those into :class:`ArrayRef`
or :class:`FuncRef` once declarations are known.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expression nodes."""

    line: int = 0

    def children(self) -> Iterator["Expr"]:
        return iter(())


@dataclass
class Num(Expr):
    """Integer or real literal. ``value`` is ``int`` or ``float``."""

    value: Union[int, float] = 0

    def __str__(self) -> str:
        return repr(self.value)


@dataclass
class Str(Expr):
    """Character literal."""

    value: str = ""


@dataclass
class LogicalLit(Expr):
    """``.true.`` / ``.false.``"""

    value: bool = False


@dataclass
class VarRef(Expr):
    """Reference to a scalar variable (or whole array used as an actual)."""

    name: str = ""


@dataclass
class NameArgs(Expr):
    """Unresolved ``name(args)`` — array element or function reference.

    The binder replaces these with :class:`ArrayRef` or :class:`FuncRef`.
    """

    name: str = ""
    args: List[Expr] = field(default_factory=list)

    def children(self) -> Iterator[Expr]:
        return iter(self.args)


@dataclass
class ArrayRef(Expr):
    """A subscripted array element reference ``a(i, j+1)``."""

    name: str = ""
    subs: List[Expr] = field(default_factory=list)

    def children(self) -> Iterator[Expr]:
        return iter(self.subs)


@dataclass
class FuncRef(Expr):
    """A function invocation in an expression (intrinsic or user)."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)
    intrinsic: bool = False

    def children(self) -> Iterator[Expr]:
        return iter(self.args)


@dataclass
class BinOp(Expr):
    """Binary operation.  ``op`` uses canonical spellings from the lexer
    (``+ - * / ** // < <= > >= == /= .and. .or. .eqv. .neqv.``)."""

    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]

    def children(self) -> Iterator[Expr]:
        yield self.left
        yield self.right


@dataclass
class UnOp(Expr):
    """Unary operation (``-``, ``+``, ``.not.``)."""

    op: str = "-"
    operand: Expr = None  # type: ignore[assignment]

    def children(self) -> Iterator[Expr]:
        yield self.operand


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statement nodes."""

    line: int = 0
    label: Optional[int] = None
    sid: int = -1

    def blocks(self) -> Iterator[List["Stmt"]]:
        """Yield each nested statement list (for structured statements)."""

        return iter(())


@dataclass
class Assign(Stmt):
    """Assignment ``target = expr``; target is VarRef or ArrayRef."""

    target: Expr = None  # type: ignore[assignment]
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class DoLoop(Stmt):
    """A DO loop.

    ``var`` is the induction variable name; ``start``/``end``/``step`` are
    expressions (``step`` defaults to literal 1).  ``parallel`` marks the
    loop as a DOALL after Ped's parallelization transformation; the printer
    emits a ``c$par doall`` directive for it.  ``end_label`` preserves the
    classic ``DO 10 I = ...`` spelling for round-tripping.
    """

    var: str = ""
    start: Expr = None  # type: ignore[assignment]
    end: Expr = None  # type: ignore[assignment]
    step: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)
    end_label: Optional[int] = None
    parallel: bool = False
    private: List[str] = field(default_factory=list)
    reductions: List[Tuple[str, str]] = field(default_factory=list)  # (op, var)

    def blocks(self) -> Iterator[List[Stmt]]:
        yield self.body


@dataclass
class If(Stmt):
    """Block IF with optional ELSE IF chain and ELSE.

    ``arms`` is a list of (condition, body); the final arm's condition is
    ``None`` for a plain ELSE.  A logical IF is represented as a single arm
    whose body holds one statement and ``block=False``.
    """

    arms: List[Tuple[Optional[Expr], List[Stmt]]] = field(default_factory=list)
    block: bool = True

    def blocks(self) -> Iterator[List[Stmt]]:
        for _, body in self.arms:
            yield body


@dataclass
class CallStmt(Stmt):
    """``CALL name(args)``"""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class ReturnStmt(Stmt):
    pass


@dataclass
class StopStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class GotoStmt(Stmt):
    target: int = 0


@dataclass
class IOStmt(Stmt):
    """WRITE / PRINT / READ, parsed loosely: ``kind`` plus an item list.

    Control lists like ``(6, *)`` are preserved as expressions in ``spec``.
    READ items that are variables count as definitions in the analyses.
    """

    kind: str = "write"  # "write" | "print" | "read"
    spec: List[Expr] = field(default_factory=list)
    items: List[Expr] = field(default_factory=list)


# -- declarations ----------------------------------------------------------


@dataclass
class Entity:
    """A declared name with optional dimension declarators.

    ``dims`` is a list of ``(lower, upper)`` expression pairs; ``lower`` may
    be None (defaults to 1).  ``upper`` may be a ``VarRef('*')`` for assumed
    size.
    """

    name: str = ""
    dims: Optional[List[Tuple[Optional[Expr], Expr]]] = None
    line: int = 0


@dataclass
class TypeDecl(Stmt):
    """``INTEGER a, b(10)`` etc.  ``typename`` is canonical lower case."""

    typename: str = "integer"
    entities: List[Entity] = field(default_factory=list)


@dataclass
class DimensionDecl(Stmt):
    entities: List[Entity] = field(default_factory=list)


@dataclass
class CommonDecl(Stmt):
    """``COMMON /block/ a, b(10)``; blank common uses block name ''."""

    block: str = ""
    entities: List[Entity] = field(default_factory=list)


@dataclass
class ParameterDecl(Stmt):
    """``PARAMETER (n = 100, m = n*2)``"""

    assigns: List[Tuple[str, Expr]] = field(default_factory=list)


@dataclass
class DataDecl(Stmt):
    """``DATA x /1.0/, y /2.0/`` — names with initial-value expressions."""

    items: List[Tuple[str, Expr]] = field(default_factory=list)


@dataclass
class ExternalDecl(Stmt):
    names: List[str] = field(default_factory=list)


@dataclass
class IntrinsicDecl(Stmt):
    names: List[str] = field(default_factory=list)


@dataclass
class ImplicitNone(Stmt):
    pass


@dataclass
class SaveDecl(Stmt):
    names: List[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# Program units
# --------------------------------------------------------------------------


@dataclass
class ProcedureUnit:
    """A program unit: PROGRAM, SUBROUTINE or FUNCTION.

    ``kind`` is one of ``"program" | "subroutine" | "function"``.
    ``decls`` holds the specification statements in order; ``body`` the
    executable statements.  ``symtab`` is attached by the binder.
    ``line`` and ``end_line`` are the source lines of the unit's header
    and of the ``END`` statement that closes it (0 for a unit built
    rather than parsed).
    """

    kind: str
    name: str
    formals: List[str] = field(default_factory=list)
    rettype: Optional[str] = None
    decls: List[Stmt] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    line: int = 0
    symtab: Optional[object] = None  # repro.fortran.symbols.SymbolTable
    end_line: int = 0

    def all_statements(self) -> Iterator[Stmt]:
        """Yield every executable statement in lexical order, recursively."""

        yield from walk_statements(self.body)


@dataclass
class SourceFile:
    """A parsed source file: an ordered list of program units."""

    units: List[ProcedureUnit] = field(default_factory=list)

    def unit(self, name: str) -> ProcedureUnit:
        """Look up a unit by (case-insensitive) name."""

        low = name.lower()
        for u in self.units:
            if u.name == low:
                return u
        raise KeyError(name)


# --------------------------------------------------------------------------
# Traversal helpers
# --------------------------------------------------------------------------


def walk_statements(body: List[Stmt]) -> Iterator[Stmt]:
    """Depth-first, lexical-order traversal of a statement list."""

    for st in body:
        yield st
        for blk in st.blocks():
            yield from walk_statements(blk)


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Depth-first pre-order traversal of an expression tree."""

    yield expr
    for child in expr.children():
        yield from walk_expr(child)


def statement_exprs(st: Stmt) -> Iterator[Expr]:
    """Yield the top-level expressions of a statement (not nested bodies)."""

    if isinstance(st, Assign):
        yield st.target
        yield st.expr
    elif isinstance(st, DoLoop):
        yield st.start
        yield st.end
        if st.step is not None:
            yield st.step
    elif isinstance(st, If):
        for cond, _ in st.arms:
            if cond is not None:
                yield cond
    elif isinstance(st, CallStmt):
        yield from st.args
    elif isinstance(st, IOStmt):
        yield from st.spec
        yield from st.items


def number_statements(unit: ProcedureUnit) -> None:
    """Assign consecutive ``sid`` values to all executable statements."""

    for i, st in enumerate(walk_statements(unit.body)):
        st.sid = i


def shift_lines(unit: ProcedureUnit, delta: int) -> None:
    """Move every source line a parsed, bound ``unit`` records by
    ``delta``, as if it had been parsed ``delta`` lines further down.

    That covers the unit's header and ``END`` lines, every declaration,
    entity, statement and expression node, and every symbol of its
    table.  Each node moves once, however many places hold it (a
    symbol's dims are its declaration's, and a ``PARAMETER`` value can
    share nodes with its declaration).  A 0 line (a formal's symbol, a
    node built rather than parsed) stays 0, as a fresh parse leaves it.
    """

    seen = set()

    def move(node) -> None:
        if id(node) not in seen:
            seen.add(id(node))
            if node.line:
                node.line += delta

    def move_expr(expr: Optional[Expr]) -> None:
        if expr is not None:
            for node in walk_expr(expr):
                move(node)

    def move_dims(dims) -> None:
        for lower, upper in dims or ():
            move_expr(lower)
            move_expr(upper)

    move(unit)
    if unit.end_line:
        unit.end_line += delta
    for decl in unit.decls:
        move(decl)
        if isinstance(decl, (TypeDecl, DimensionDecl, CommonDecl)):
            for ent in decl.entities:
                move(ent)
                move_dims(ent.dims)
        elif isinstance(decl, ParameterDecl):
            for _, expr in decl.assigns:
                move_expr(expr)
        elif isinstance(decl, DataDecl):
            for _, expr in decl.items:
                move_expr(expr)
    for st in walk_statements(unit.body):
        move(st)
        for expr in statement_exprs(st):
            move_expr(expr)
    if unit.symtab is not None:
        for sym in unit.symtab.symbols.values():  # type: ignore[attr-defined]
            move(sym)
            move_dims(sym.dims)
            move_expr(sym.const_value)


def copy_expr(expr: Expr) -> Expr:
    """Deep-copy an expression tree (cheaper than ``copy.deepcopy``)."""

    if isinstance(expr, Num):
        return Num(expr.line, expr.value)
    if isinstance(expr, Str):
        return Str(expr.line, expr.value)
    if isinstance(expr, LogicalLit):
        return LogicalLit(expr.line, expr.value)
    if isinstance(expr, VarRef):
        return VarRef(expr.line, expr.name)
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.line, expr.name, [copy_expr(s) for s in expr.subs])
    if isinstance(expr, FuncRef):
        return FuncRef(
            expr.line, expr.name, [copy_expr(a) for a in expr.args], expr.intrinsic
        )
    if isinstance(expr, NameArgs):
        return NameArgs(expr.line, expr.name, [copy_expr(a) for a in expr.args])
    if isinstance(expr, BinOp):
        return BinOp(expr.line, expr.op, copy_expr(expr.left), copy_expr(expr.right))
    if isinstance(expr, UnOp):
        return UnOp(expr.line, expr.op, copy_expr(expr.operand))
    raise TypeError(f"cannot copy {type(expr).__name__}")


def copy_stmt(st: Stmt) -> Stmt:
    """Deep-copy a statement (and nested bodies), preserving labels."""

    if isinstance(st, Assign):
        return Assign(st.line, st.label, -1, copy_expr(st.target), copy_expr(st.expr))
    if isinstance(st, DoLoop):
        return DoLoop(
            st.line,
            st.label,
            -1,
            st.var,
            copy_expr(st.start),
            copy_expr(st.end),
            copy_expr(st.step) if st.step is not None else None,
            [copy_stmt(s) for s in st.body],
            st.end_label,
            st.parallel,
            list(st.private),
            list(st.reductions),
        )
    if isinstance(st, If):
        return If(
            st.line,
            st.label,
            -1,
            [
                (copy_expr(c) if c is not None else None, [copy_stmt(s) for s in b])
                for c, b in st.arms
            ],
            st.block,
        )
    if isinstance(st, CallStmt):
        return CallStmt(st.line, st.label, -1, st.name, [copy_expr(a) for a in st.args])
    if isinstance(st, ReturnStmt):
        return ReturnStmt(st.line, st.label, -1)
    if isinstance(st, StopStmt):
        return StopStmt(st.line, st.label, -1)
    if isinstance(st, ContinueStmt):
        return ContinueStmt(st.line, st.label, -1)
    if isinstance(st, GotoStmt):
        return GotoStmt(st.line, st.label, -1, st.target)
    if isinstance(st, IOStmt):
        return IOStmt(
            st.line,
            st.label,
            -1,
            st.kind,
            [copy_expr(e) for e in st.spec],
            [copy_expr(e) for e in st.items],
        )
    raise TypeError(f"cannot copy {type(st).__name__}")
