"""Recursive-descent parser for the Fortran 77 subset.

The parser is organised in two layers:

1. The lexer output is regrouped into *statement token lists* (one list per
   logical statement, with its optional label and source line).
2. A cursor over those statements drives recursive-descent parsing of
   program units and structured constructs (block IF, both DO spellings).

Expression parsing uses precedence climbing with the standard Fortran
operator precedence: ``.or.`` < ``.and.`` < ``.not.`` < relational < ``//``
< additive < multiplicative < unary < ``**`` (right associative).

``name(args)`` forms are parsed as :class:`NameArgs`; the binder resolves
them to array or function references (Fortran has no reserved words and the
distinction needs declarations).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import lexer as lx
from .ast_nodes import (
    Assign,
    BinOp,
    CallStmt,
    CommonDecl,
    ContinueStmt,
    DataDecl,
    DimensionDecl,
    DoLoop,
    Entity,
    Expr,
    ExternalDecl,
    GotoStmt,
    If,
    ImplicitNone,
    IntrinsicDecl,
    IOStmt,
    LogicalLit,
    NameArgs,
    Num,
    ParameterDecl,
    ProcedureUnit,
    ReturnStmt,
    SaveDecl,
    SourceFile,
    Stmt,
    StopStmt,
    Str,
    TypeDecl,
    UnOp,
    VarRef,
)
from .errors import ParseError
from .lexer import Token

#: Canonical type-declaration keywords (``double precision`` is normalised
#: to ``doubleprecision`` during statement recognition).
_TYPE_KEYWORDS = {
    "integer",
    "real",
    "doubleprecision",
    "logical",
    "character",
    "complex",
}

_REL_OPS = {"<", "<=", ">", ">=", "==", "/="}
_ADD_OPS = {"+", "-"}
_MUL_OPS = {"*", "/"}


class _StmtTokens:
    """One logical statement as a token list with label and line."""

    __slots__ = ("label", "toks", "line")

    def __init__(self, label: Optional[int], toks: List[Token], line: int) -> None:
        self.label = label
        self.toks = toks
        self.line = line


def _group_statements(tokens: List[Token]) -> List[_StmtTokens]:
    stmts: List[_StmtTokens] = []
    label: Optional[int] = None
    cur: List[Token] = []
    line = 1
    for tok in tokens:
        if tok.kind == lx.LABEL:
            label = int(tok.value)
        elif tok.kind == lx.NEWLINE:
            if cur:
                stmts.append(_StmtTokens(label, cur, cur[0].line))
            label = None
            cur = []
        elif tok.kind == lx.EOF:
            break
        else:
            if not cur:
                line = tok.line
            cur.append(tok)
    if cur:
        stmts.append(_StmtTokens(label, cur, line))
    return stmts


class _ExprParser:
    """Precedence-climbing expression parser over one statement's tokens."""

    def __init__(self, toks: List[Token], pos: int = 0) -> None:
        self.toks = toks
        self.pos = pos

    # -- token helpers -------------------------------------------------

    def peek(self) -> Optional[Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else None
            raise ParseError(
                "unexpected end of statement",
                last.line if last else 0,
                last.col if last else 0,
            )
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.next()
        if tok.kind != lx.OP or tok.value != op:
            raise ParseError(f"expected {op!r}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == lx.OP and tok.value in ops

    def done(self) -> bool:
        return self.pos >= len(self.toks)

    # -- grammar ---------------------------------------------------------

    def expression(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self.at_op(".or.", ".eqv.", ".neqv."):
            op = self.next().value
            right = self._and_expr()
            left = BinOp(left.line, op, left, right)
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self.at_op(".and."):
            self.next()
            right = self._not_expr()
            left = BinOp(left.line, ".and.", left, right)
        return left

    def _not_expr(self) -> Expr:
        if self.at_op(".not."):
            tok = self.next()
            return UnOp(tok.line, ".not.", self._not_expr())
        return self._rel_expr()

    def _rel_expr(self) -> Expr:
        left = self._concat_expr()
        if self.at_op(*_REL_OPS):
            op = self.next().value
            right = self._concat_expr()
            return BinOp(left.line, op, left, right)
        return left

    def _concat_expr(self) -> Expr:
        left = self._add_expr()
        while self.at_op("//"):
            self.next()
            right = self._add_expr()
            left = BinOp(left.line, "//", left, right)
        return left

    def _add_expr(self) -> Expr:
        if self.at_op("+", "-"):
            tok = self.next()
            operand = self._mul_expr()
            left: Expr = (
                operand if tok.value == "+" else UnOp(tok.line, "-", operand)
            )
        else:
            left = self._mul_expr()
        while self.at_op(*_ADD_OPS):
            op = self.next().value
            right = self._mul_expr()
            left = BinOp(left.line, op, left, right)
        return left

    def _mul_expr(self) -> Expr:
        left = self._unary_expr()
        while self.at_op(*_MUL_OPS):
            op = self.next().value
            right = self._unary_expr()
            left = BinOp(left.line, op, left, right)
        return left

    def _unary_expr(self) -> Expr:
        if self.at_op("+", "-"):
            tok = self.next()
            operand = self._unary_expr()
            if tok.value == "+":
                return operand
            return UnOp(tok.line, "-", operand)
        return self._power_expr()

    def _power_expr(self) -> Expr:
        base = self._primary()
        if self.at_op("**"):
            self.next()
            # Right associative: a ** b ** c == a ** (b ** c)
            exponent = self._unary_expr()
            return BinOp(base.line, "**", base, exponent)
        return base

    def _primary(self) -> Expr:
        tok = self.next()
        if tok.kind == lx.INT:
            return Num(tok.line, int(tok.value))
        if tok.kind == lx.REAL:
            return Num(tok.line, float(tok.value))
        if tok.kind == lx.STRING:
            return Str(tok.line, tok.value)
        if tok.kind == lx.OP and tok.value in (".true.", ".false."):
            return LogicalLit(tok.line, tok.value == ".true.")
        if tok.kind == lx.OP and tok.value == "(":
            inner = self.expression()
            self.expect_op(")")
            return inner
        if tok.kind == lx.NAME:
            if self.at_op("("):
                self.next()
                args: List[Expr] = []
                if not self.at_op(")"):
                    args.append(self.expression())
                    while self.at_op(","):
                        self.next()
                        args.append(self.expression())
                self.expect_op(")")
                return NameArgs(tok.line, tok.value, args)
            return VarRef(tok.line, tok.value)
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)

    def arg_list(self) -> List[Expr]:
        """Parse ``( expr, ... )`` (possibly empty)."""

        self.expect_op("(")
        args: List[Expr] = []
        if not self.at_op(")"):
            args.append(self.expression())
            while self.at_op(","):
                self.next()
                args.append(self.expression())
        self.expect_op(")")
        return args


class Parser:
    """Parse a full source file into a :class:`SourceFile`."""

    def __init__(self, source: str) -> None:
        self.stmts = _group_statements(lx.tokenize(source))
        self.idx = 0

    # -- statement cursor ----------------------------------------------

    def _peek_stmt(self) -> Optional[_StmtTokens]:
        return self.stmts[self.idx] if self.idx < len(self.stmts) else None

    def _next_stmt(self) -> _StmtTokens:
        st = self._peek_stmt()
        if st is None:
            raise ParseError("unexpected end of file")
        self.idx += 1
        return st

    # -- entry point -----------------------------------------------------

    def parse(self) -> SourceFile:
        units: List[ProcedureUnit] = []
        while self._peek_stmt() is not None:
            units.append(self._parse_unit())
        return SourceFile(units)

    # -- program units ---------------------------------------------------

    def _parse_unit(self) -> ProcedureUnit:
        st = self._next_stmt()
        kw = _normalized_keyword(st)
        line = st.line
        rettype: Optional[str] = None
        if kw in _TYPE_KEYWORDS:
            # Could be "real function f(x)".
            ep = _ExprParser(st.toks, 1 if kw != "doubleprecision" else 2)
            nxt = ep.peek()
            if nxt is not None and nxt.kind == lx.NAME and nxt.value == "function":
                rettype = kw
                ep.next()
                name_tok = ep.next()
                formals = [a.name for a in ep.arg_list()] if ep.at_op("(") else []  # type: ignore[union-attr]
                unit = ProcedureUnit("function", name_tok.value, formals, rettype, line=line)
                self._parse_unit_body(unit)
                return unit
            # Otherwise it is a declaration inside an implicit main program.
            self.idx -= 1
            unit = ProcedureUnit("program", "main", line=line)
            self._parse_unit_body(unit)
            return unit
        if kw == "program":
            name = st.toks[1].value
            unit = ProcedureUnit("program", name, line=line)
            self._parse_unit_body(unit)
            return unit
        if kw in ("subroutine", "function"):
            ep = _ExprParser(st.toks, 1)
            name_tok = ep.next()
            formals: List[str] = []
            if ep.at_op("("):
                for arg in ep.arg_list():
                    if not isinstance(arg, VarRef):
                        raise ParseError("bad formal parameter", st.line, 1)
                    formals.append(arg.name)
            unit = ProcedureUnit(kw, name_tok.value, formals, rettype, line=line)
            self._parse_unit_body(unit)
            return unit
        # Headerless main program.
        self.idx -= 1
        unit = ProcedureUnit("program", "main", line=line)
        self._parse_unit_body(unit)
        return unit

    def _parse_unit_body(self, unit: ProcedureUnit) -> None:
        # Specification part.
        while True:
            st = self._peek_stmt()
            if st is None:
                raise ParseError(f"missing END for unit {unit.name!r}", unit.line)
            kw = _normalized_keyword(st)
            decl = self._try_parse_decl(st, kw)
            if decl is None:
                break
            self.idx += 1
            unit.decls.append(decl)
        # Executable part.
        unit.body = self._parse_block({"end"})
        end_stmt = self._next_stmt()  # consume END
        del end_stmt

    # -- declarations ------------------------------------------------------

    def _try_parse_decl(self, st: _StmtTokens, kw: str) -> Optional[Stmt]:
        if kw in _TYPE_KEYWORDS and not _looks_like_assignment(st):
            skip = 2 if _raw_two_words(st) == ("double", "precision") else 1
            # "real function f" already handled at unit level; a nested one
            # here would be an error we let the entity parser catch.
            ep = _ExprParser(st.toks, skip)
            # character*8 style length spec: skip it.
            if kw == "character" and ep.at_op("*"):
                ep.next()
                ep.next()
            entities = self._parse_entities(ep, st.line)
            return TypeDecl(st.line, st.label, -1, kw, entities)
        if kw == "dimension":
            ep = _ExprParser(st.toks, 1)
            return DimensionDecl(st.line, st.label, -1, self._parse_entities(ep, st.line))
        if kw == "common":
            ep = _ExprParser(st.toks, 1)
            block = ""
            if ep.at_op("/"):
                ep.next()
                block = ep.next().value
                ep.expect_op("/")
            return CommonDecl(st.line, st.label, -1, block, self._parse_entities(ep, st.line))
        if kw == "parameter":
            ep = _ExprParser(st.toks, 1)
            ep.expect_op("(")
            assigns: List[Tuple[str, Expr]] = []
            while True:
                name = ep.next().value
                ep.expect_op("=")
                assigns.append((name, ep.expression()))
                if ep.at_op(","):
                    ep.next()
                    continue
                break
            ep.expect_op(")")
            return ParameterDecl(st.line, st.label, -1, assigns)
        if kw == "data":
            ep = _ExprParser(st.toks, 1)
            items: List[Tuple[str, Expr]] = []
            while not ep.done():
                name = ep.next().value
                ep.expect_op("/")
                # DATA values are constants; a full expression parse would
                # swallow the closing '/' as a division operator.
                if ep.at_op("-"):
                    tok = ep.next()
                    value: Expr = UnOp(tok.line, "-", ep._primary())
                else:
                    value = ep._primary()
                items.append((name, value))
                ep.expect_op("/")
                if ep.at_op(","):
                    ep.next()
            return DataDecl(st.line, st.label, -1, items)
        if kw == "external":
            return ExternalDecl(st.line, st.label, -1, _name_list(st.toks[1:]))
        if kw == "intrinsic":
            return IntrinsicDecl(st.line, st.label, -1, _name_list(st.toks[1:]))
        if kw == "save":
            return SaveDecl(st.line, st.label, -1, _name_list(st.toks[1:]))
        if kw == "implicit":
            return ImplicitNone(st.line, st.label, -1)
        return None

    def _parse_entities(self, ep: _ExprParser, line: int) -> List[Entity]:
        entities: List[Entity] = []
        while not ep.done():
            name_tok = ep.next()
            if name_tok.kind != lx.NAME:
                raise ParseError("expected name in declaration", line, name_tok.col)
            dims: Optional[List[Tuple[Optional[Expr], Expr]]] = None
            if ep.at_op("("):
                ep.next()
                dims = []
                while True:
                    dims.append(self._parse_dim(ep))
                    if ep.at_op(","):
                        ep.next()
                        continue
                    break
                ep.expect_op(")")
            entities.append(Entity(name_tok.value, dims, line))
            if ep.at_op(","):
                ep.next()
                continue
            break
        return entities

    def _parse_dim(self, ep: _ExprParser) -> Tuple[Optional[Expr], Expr]:
        if ep.at_op("*"):
            tok = ep.next()
            return (None, VarRef(tok.line, "*"))
        first = ep.expression()
        if ep.at_op(":"):
            ep.next()
            if ep.at_op("*"):
                tok = ep.next()
                return (first, VarRef(tok.line, "*"))
            return (first, ep.expression())
        return (None, first)

    # -- executable statements ----------------------------------------------

    def _parse_block(self, terminators: set, end_label: Optional[int] = None) -> List[Stmt]:
        """Parse statements until a terminator keyword (not consumed) or, if
        ``end_label`` is given, until the statement carrying that label has
        been consumed."""

        body: List[Stmt] = []
        while True:
            st = self._peek_stmt()
            if st is None:
                raise ParseError("unexpected end of file in block")
            kw = _normalized_keyword(st)
            if end_label is None and kw in terminators and not _looks_like_assignment(st):
                return body
            stmt = self._parse_statement()
            body.append(stmt)
            if end_label is not None and stmt.label == end_label:
                return body

    def _parse_statement(self) -> Stmt:
        st = self._next_stmt()
        kw = _normalized_keyword(st)
        if _looks_like_assignment(st):
            return self._parse_assign(st)
        if kw == "doall":
            return self._parse_doall_directive(st)
        if kw == "do":
            return self._parse_do(st)
        if kw == "if":
            return self._parse_if(st)
        if kw == "call":
            ep = _ExprParser(st.toks, 1)
            name = ep.next().value
            args = ep.arg_list() if ep.at_op("(") else []
            return CallStmt(st.line, st.label, -1, name, args)
        if kw == "goto":
            tok = st.toks[-1]
            return GotoStmt(st.line, st.label, -1, int(tok.value))
        if kw == "return":
            return ReturnStmt(st.line, st.label, -1)
        if kw == "stop":
            return StopStmt(st.line, st.label, -1)
        if kw == "continue":
            return ContinueStmt(st.line, st.label, -1)
        if kw in ("write", "read", "print"):
            return self._parse_io(st, kw)
        raise ParseError(
            f"unrecognised statement starting with {st.toks[0].value!r}",
            st.line,
            st.toks[0].col,
        )

    def _parse_doall_directive(self, st: _StmtTokens) -> Stmt:
        """``c$par doall [private(a, b)] [reduction(op:var)]…`` — the
        directive line produced by the printer; it attaches its attributes
        to the DO loop that must follow."""

        private: List[str] = []
        reductions: List[Tuple[str, str]] = []
        ep = _ExprParser(st.toks, 1)
        while not ep.done():
            tok = ep.next()
            if tok.kind != lx.NAME:
                raise ParseError("malformed c$par directive", st.line, tok.col)
            if tok.value == "private":
                ep.expect_op("(")
                while not ep.at_op(")"):
                    name_tok = ep.next()
                    private.append(name_tok.value)
                    if ep.at_op(","):
                        ep.next()
                ep.expect_op(")")
            elif tok.value == "reduction":
                ep.expect_op("(")
                op_tok = ep.next()
                ep.expect_op(":")
                var_tok = ep.next()
                ep.expect_op(")")
                reductions.append((op_tok.value, var_tok.value))
            else:
                raise ParseError(
                    f"unknown directive clause {tok.value!r}", st.line, tok.col
                )
        loop = self._parse_statement()
        if not isinstance(loop, DoLoop):
            raise ParseError("c$par doall must precede a DO loop", st.line)
        loop.parallel = True
        loop.private = private
        loop.reductions = reductions
        return loop

    def _parse_assign(self, st: _StmtTokens) -> Assign:
        ep = _ExprParser(st.toks, 0)
        target = ep._primary()
        ep.expect_op("=")
        expr = ep.expression()
        if not ep.done():
            tok = ep.peek()
            raise ParseError(
                f"trailing tokens after assignment: {tok.value!r}",  # type: ignore[union-attr]
                st.line,
                tok.col,  # type: ignore[union-attr]
            )
        return Assign(st.line, st.label, -1, target, expr)

    def _parse_do(self, st: _StmtTokens) -> DoLoop:
        ep = _ExprParser(st.toks, 1)
        end_label: Optional[int] = None
        tok = ep.peek()
        if tok is not None and tok.kind == lx.INT:
            end_label = int(ep.next().value)
        var_tok = ep.next()
        if var_tok.kind != lx.NAME:
            raise ParseError("expected DO variable", st.line, var_tok.col)
        ep.expect_op("=")
        start = ep.expression()
        ep.expect_op(",")
        end = ep.expression()
        step: Optional[Expr] = None
        if ep.at_op(","):
            ep.next()
            step = ep.expression()
        if end_label is not None:
            body = self._parse_block(set(), end_label=end_label)
            # Drop a trailing bare CONTINUE that only exists to close the
            # loop; keep any other labeled terminal statement.
            if body and isinstance(body[-1], ContinueStmt):
                body = body[:-1]
        else:
            body = self._parse_block({"enddo", "end"})
            closer = self._next_stmt()
            if _normalized_keyword(closer) != "enddo":
                raise ParseError("DO loop not closed by END DO", closer.line)
        return DoLoop(
            st.line, st.label, -1, var_tok.value, start, end, step, body, end_label
        )

    def _parse_if(self, st: _StmtTokens) -> Stmt:
        ep = _ExprParser(st.toks, 1)
        ep.expect_op("(")
        cond = ep.expression()
        ep.expect_op(")")
        nxt = ep.peek()
        if nxt is not None and nxt.kind == lx.NAME and nxt.value == "then" and ep.pos == len(st.toks) - 1:
            arms: List[Tuple[Optional[Expr], List[Stmt]]] = []
            body = self._parse_block({"else", "elseif", "endif", "end"})
            arms.append((cond, body))
            while True:
                closer = self._next_stmt()
                ckw = _normalized_keyword(closer)
                if ckw == "endif":
                    break
                if ckw == "elseif":
                    cep = _ExprParser(closer.toks, 1)
                    # tokens may be "else if (..) then" normalised to elseif
                    cep.expect_op("(")
                    ccond = cep.expression()
                    cep.expect_op(")")
                    cbody = self._parse_block({"else", "elseif", "endif", "end"})
                    arms.append((ccond, cbody))
                    continue
                if ckw == "else":
                    cbody = self._parse_block({"endif", "end"})
                    arms.append((None, cbody))
                    continue
                raise ParseError("IF block not closed by END IF", closer.line)
            return If(st.line, st.label, -1, arms, True)
        # Logical IF: the remainder of this statement is a single statement.
        inner_tokens = st.toks[ep.pos :]
        inner = _StmtTokens(None, inner_tokens, st.line)
        saved = self.stmts[self.idx :]
        self.stmts = self.stmts[: self.idx] + [inner] + saved
        inner_stmt = self._parse_statement()
        return If(st.line, st.label, -1, [(cond, [inner_stmt])], False)

    def _parse_io(self, st: _StmtTokens, kw: str) -> IOStmt:
        ep = _ExprParser(st.toks, 1)
        spec: List[Expr] = []
        if kw in ("write", "read") and ep.at_op("("):
            ep.next()
            while not ep.at_op(")"):
                if ep.at_op("*"):
                    tok = ep.next()
                    spec.append(VarRef(tok.line, "*"))
                else:
                    spec.append(ep.expression())
                if ep.at_op(","):
                    ep.next()
            ep.expect_op(")")
        elif kw == "print":
            if ep.at_op("*"):
                tok = ep.next()
                spec.append(VarRef(tok.line, "*"))
            if ep.at_op(","):
                ep.next()
        items: List[Expr] = []
        while not ep.done():
            items.append(ep.expression())
            if ep.at_op(","):
                ep.next()
        return IOStmt(st.line, st.label, -1, kw, spec, items)


def _name_list(toks: List[Token]) -> List[str]:
    """Extract the comma-separated names of EXTERNAL/INTRINSIC/SAVE."""

    return [t.value for t in toks if t.kind == lx.NAME]


def _normalized_keyword(st: _StmtTokens) -> str:
    """Canonical leading keyword of a statement, merging two-word forms."""

    toks = st.toks
    if not toks or toks[0].kind != lx.NAME:
        return ""
    first = toks[0].value
    second = toks[1].value if len(toks) > 1 and toks[1].kind == lx.NAME else ""
    if first == "go" and second == "to":
        # Merge for the caller; the DO/IF parsers never see "go".
        st.toks = [Token(lx.NAME, "goto", toks[0].line, toks[0].col)] + toks[2:]
        return "goto"
    if first == "end" and second in ("do", "if"):
        st.toks = [Token(lx.NAME, "end" + second, toks[0].line, toks[0].col)]
        return "end" + second
    if first == "else" and second == "if":
        st.toks = [Token(lx.NAME, "elseif", toks[0].line, toks[0].col)] + toks[2:]
        return "elseif"
    if first == "double" and second == "precision":
        return "doubleprecision"
    return first


def _raw_two_words(st: _StmtTokens) -> Tuple[str, str]:
    toks = st.toks
    a = toks[0].value if toks and toks[0].kind == lx.NAME else ""
    b = toks[1].value if len(toks) > 1 and toks[1].kind == lx.NAME else ""
    return (a, b)


def _looks_like_assignment(st: _StmtTokens) -> bool:
    """True if the statement matches ``name [ (...) ] = ...``.

    Because Fortran has no reserved words, ``if(i) = 3`` is an assignment to
    array ``if``; this predicate performs the classical disambiguation by
    scanning for a top-level ``=`` after an optional parenthesised group.
    A DO statement header ``do i = 1, n`` also contains ``=`` — it is
    excluded by checking for a top-level comma after the ``=`` *only when*
    the statement starts with the DO pattern ``do [label] name =``.
    """

    toks = st.toks
    if not toks or toks[0].kind != lx.NAME:
        return False
    i = 1
    depth = 0
    if i < len(toks) and toks[i].kind == lx.OP and toks[i].value == "(":
        depth = 1
        i += 1
        while i < len(toks) and depth:
            if toks[i].kind == lx.OP and toks[i].value == "(":
                depth += 1
            elif toks[i].kind == lx.OP and toks[i].value == ")":
                depth -= 1
            i += 1
    if i >= len(toks) or toks[i].kind != lx.OP or toks[i].value != "=":
        return False
    # Exclude DO headers: "do i = 1, n" / "do 10 i = 1, n" have a top-level
    # comma after '='; assignments to a scalar named "do" do not.
    if toks[0].value == "do":
        depth = 0
        for tok in toks[i + 1 :]:
            if tok.kind != lx.OP:
                continue
            if tok.value == "(":
                depth += 1
            elif tok.value == ")":
                depth -= 1
            elif tok.value == "," and depth == 0:
                return False
    return True


def parse_source(source: str) -> SourceFile:
    """Parse Fortran ``source`` text into a :class:`SourceFile`."""

    return Parser(source).parse()
