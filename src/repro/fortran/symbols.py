"""Symbol tables and the binder pass.

The binder walks a parsed :class:`ProcedureUnit`, builds its
:class:`SymbolTable` from the specification statements, and resolves every
:class:`NameArgs` expression into either an :class:`ArrayRef` (the name is a
declared array) or a :class:`FuncRef` (intrinsic or external function).

Symbol *storage classes* distinguish locals, formals, COMMON members and
PARAMETER constants; the interprocedural analyses key on these to decide
what a call site can touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    CommonDecl,
    DataDecl,
    DimensionDecl,
    DoLoop,
    Entity,
    Expr,
    ExternalDecl,
    FuncRef,
    If,
    NameArgs,
    Num,
    ParameterDecl,
    ProcedureUnit,
    SourceFile,
    Stmt,
    TypeDecl,
    UnOp,
    VarRef,
    number_statements,
    walk_statements,
)
from .errors import SemanticError

#: Fortran intrinsic functions recognised without declaration.
INTRINSICS = frozenset(
    {
        "abs", "iabs", "dabs",
        "max", "min", "max0", "min0", "amax1", "amin1", "dmax1", "dmin1",
        "mod", "amod", "dmod",
        "sqrt", "dsqrt",
        "exp", "dexp", "log", "alog", "dlog", "log10", "alog10",
        "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
        "sinh", "cosh", "tanh",
        "int", "ifix", "idint", "nint", "float", "real", "dble", "sngl",
        "sign", "isign", "dsign", "dim", "idim",
        "len", "index", "ichar", "char",
    }
)

#: Storage classes.
LOCAL = "local"
FORMAL = "formal"
COMMON = "common"
PARAM = "parameter"
FUNC = "function"


@dataclass
class Symbol:
    """One declared (or implicitly typed) name within a unit."""

    name: str
    typename: str = "real"
    storage: str = LOCAL
    dims: Optional[List[Tuple[Optional[Expr], Expr]]] = None
    common_block: Optional[str] = None
    const_value: Optional[Expr] = None
    formal_index: Optional[int] = None
    line: int = 0

    @property
    def is_array(self) -> bool:
        return self.dims is not None

    @property
    def rank(self) -> int:
        return len(self.dims) if self.dims else 0


def implicit_type(name: str) -> str:
    """Classic implicit typing: I-N are INTEGER, everything else REAL."""

    return "integer" if name[0] in "ijklmn" else "real"


@dataclass
class SymbolTable:
    """All symbols of one program unit, keyed by lower-case name."""

    unit_name: str
    symbols: Dict[str, Symbol] = field(default_factory=dict)
    common_blocks: Dict[str, List[str]] = field(default_factory=dict)

    def get(self, name: str) -> Optional[Symbol]:
        return self.symbols.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.symbols

    def __getitem__(self, name: str) -> Symbol:
        sym = self.get(name)
        if sym is None:
            raise KeyError(name)
        return sym

    def ensure(self, name: str, line: int = 0) -> Symbol:
        """Get or implicitly create a symbol."""

        low = name.lower()
        sym = self.symbols.get(low)
        if sym is None:
            sym = Symbol(low, implicit_type(low), LOCAL, line=line)
            self.symbols[low] = sym
        return sym

    def arrays(self) -> List[Symbol]:
        return [s for s in self.symbols.values() if s.is_array]

    def scalars(self) -> List[Symbol]:
        return [
            s
            for s in self.symbols.values()
            if not s.is_array and s.storage not in (PARAM, FUNC)
        ]

    def parameter_value(self, name: str) -> Optional[Expr]:
        sym = self.get(name)
        if sym is not None and sym.storage == PARAM:
            return sym.const_value
        return None


class Binder:
    """Build symbol tables and resolve ``NameArgs``, one unit at a time.

    Binding a unit reads nothing but that unit: a ``name(args)`` that is
    not one of its declared arrays is a function reference whether or
    not ``name`` is a function unit of the program, so a unit binds the
    same way in any program that contains it.
    """

    def bind_unit(self, unit: ProcedureUnit) -> None:
        table = SymbolTable(unit.name)
        externals: set = set()
        for i, f in enumerate(unit.formals):
            table.symbols[f] = Symbol(f, implicit_type(f), FORMAL, formal_index=i)
        if unit.kind == "function":
            ret = Symbol(
                unit.name, unit.rettype or implicit_type(unit.name), LOCAL
            )
            table.symbols[unit.name] = ret
        for decl in unit.decls:
            self._bind_decl(decl, table, externals)
        unit.symtab = table
        # Resolve expressions in declarations that reference parameters.
        for st in walk_statements(unit.body):
            self._resolve_stmt(st, table, externals)
        number_statements(unit)

    def _bind_decl(self, decl: Stmt, table: SymbolTable, externals: set) -> None:
        if isinstance(decl, TypeDecl):
            for ent in decl.entities:
                sym = table.ensure(ent.name, ent.line)
                sym.typename = decl.typename
                if ent.dims is not None:
                    self._set_dims(sym, ent, decl.line)
        elif isinstance(decl, DimensionDecl):
            for ent in decl.entities:
                sym = table.ensure(ent.name, ent.line)
                self._set_dims(sym, ent, decl.line)
        elif isinstance(decl, CommonDecl):
            block = decl.block
            members = table.common_blocks.setdefault(block, [])
            for ent in decl.entities:
                sym = table.ensure(ent.name, ent.line)
                sym.storage = COMMON
                sym.common_block = block
                if ent.dims is not None:
                    self._set_dims(sym, ent, decl.line)
                members.append(ent.name)
        elif isinstance(decl, ParameterDecl):
            for name, expr in decl.assigns:
                sym = table.ensure(name, decl.line)
                sym.storage = PARAM
                sym.const_value = self._resolve_expr(expr, table, externals)
        elif isinstance(decl, ExternalDecl):
            for name in decl.names:
                externals.add(name)
                sym = table.ensure(name, decl.line)
                sym.storage = FUNC
        elif isinstance(decl, DataDecl):
            for name, _ in decl.items:
                table.ensure(name, decl.line)

    def _set_dims(self, sym: Symbol, ent: Entity, line: int) -> None:
        if sym.dims is not None and sym.dims != ent.dims:
            raise SemanticError(f"conflicting dimensions for {sym.name!r}", line)
        sym.dims = ent.dims

    # -- expression resolution ---------------------------------------------

    def _resolve_stmt(self, st: Stmt, table: SymbolTable, externals: set) -> None:
        if isinstance(st, Assign):
            st.target = self._resolve_expr(st.target, table, externals, is_target=True)
            st.expr = self._resolve_expr(st.expr, table, externals)
        elif isinstance(st, DoLoop):
            table.ensure(st.var, st.line)
            st.start = self._resolve_expr(st.start, table, externals)
            st.end = self._resolve_expr(st.end, table, externals)
            if st.step is not None:
                st.step = self._resolve_expr(st.step, table, externals)
        elif isinstance(st, If):
            st.arms = [
                (
                    self._resolve_expr(c, table, externals) if c is not None else None,
                    b,
                )
                for c, b in st.arms
            ]
        else:
            for attr in ("args", "spec", "items"):
                if hasattr(st, attr):
                    setattr(
                        st,
                        attr,
                        [
                            self._resolve_expr(e, table, externals)
                            for e in getattr(st, attr)
                        ],
                    )

    def _resolve_expr(
        self,
        expr: Expr,
        table: SymbolTable,
        externals: set,
        is_target: bool = False,
    ) -> Expr:
        if isinstance(expr, NameArgs):
            args = [self._resolve_expr(a, table, externals) for a in expr.args]
            sym = table.get(expr.name)
            if sym is not None and sym.is_array:
                if len(args) != sym.rank:
                    raise SemanticError(
                        f"array {expr.name!r} has rank {sym.rank}, "
                        f"referenced with {len(args)} subscripts",
                        expr.line,
                    )
                return ArrayRef(expr.line, expr.name, args)
            if is_target:
                # Assignment to an undeclared name(args): must be an array
                # the user forgot to declare — treat as semantic error.
                raise SemanticError(
                    f"assignment to undeclared array {expr.name!r}", expr.line
                )
            if expr.name in INTRINSICS and expr.name not in externals:
                return FuncRef(expr.line, expr.name, args, intrinsic=True)
            # Any other name(args) is an external function (F77 semantics).
            fsym = table.ensure(expr.name, expr.line)
            fsym.storage = FUNC
            return FuncRef(expr.line, expr.name, args, intrinsic=False)
        if isinstance(expr, VarRef):
            if expr.name != "*":
                table.ensure(expr.name, expr.line)
            return expr
        if isinstance(expr, BinOp):
            expr.left = self._resolve_expr(expr.left, table, externals)
            expr.right = self._resolve_expr(expr.right, table, externals)
            return expr
        if isinstance(expr, UnOp):
            expr.operand = self._resolve_expr(expr.operand, table, externals)
            return expr
        if isinstance(expr, ArrayRef):
            expr.subs = [self._resolve_expr(s, table, externals) for s in expr.subs]
            return expr
        if isinstance(expr, FuncRef):
            expr.args = [self._resolve_expr(a, table, externals) for a in expr.args]
            return expr
        return expr


def bind_source(sf: SourceFile) -> SourceFile:
    """Bind every unit of ``sf`` in place and return it."""

    binder = Binder()
    for unit in sf.units:
        binder.bind_unit(unit)
    return sf


def parse_and_bind(source: str) -> SourceFile:
    """Parse ``source`` and run the binder — the normal front-end entry."""

    from .parser import parse_source

    return bind_source(parse_source(source))


def int_const(expr: Expr, table: Optional[SymbolTable] = None) -> Optional[int]:
    """Evaluate ``expr`` to an integer constant if possible.

    Follows PARAMETER constants through ``table`` when provided.  Returns
    ``None`` when the expression is not a compile-time integer constant.
    """

    if isinstance(expr, Num) and isinstance(expr.value, int):
        return expr.value
    if isinstance(expr, UnOp) and expr.op == "-":
        inner = int_const(expr.operand, table)
        return -inner if inner is not None else None
    if isinstance(expr, BinOp):
        left = int_const(expr.left, table)
        right = int_const(expr.right, table)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return int(left / right) if right else None
        if expr.op == "**":
            return left**right if right >= 0 else None
        return None
    if isinstance(expr, VarRef) and table is not None:
        value = table.parameter_value(expr.name)
        if value is not None:
            return int_const(value, table)
    return None
