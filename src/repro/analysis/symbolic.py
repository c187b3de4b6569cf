"""Symbolic (affine) expression algebra.

Dependence testing needs subscripts as *linear forms* over loop induction
variables plus symbolic unknowns:  ``a(2*i + n - 1)`` becomes
``2·i + 1·n + (-1)``.  The :class:`Linear` class represents
``Σ coeff·atom + const`` with exact :class:`fractions.Fraction` arithmetic.

Atoms are usually variable names.  Nonlinear subterms (``n*n``, ``ip(j)``,
function results) are folded into *opaque atoms* keyed by their printed
text, so two occurrences of the same nonlinear term still cancel in
differences — the cheap flavour of symbolic analysis that the experiences
paper reports as indispensable ("symbolic terms in subscript expressions
are a key limiting factor").

The paper's three-pronged symbolics programme maps to:

1. sophisticated symbolic analysis — this module plus
   :mod:`repro.analysis.constants`;
2. partial evaluation — binding PARAMETER values and interprocedural
   constants before building linear forms;
3. user assertions — :mod:`repro.assertions` supplies extra facts consulted
   by range queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from ..fortran.ast_nodes import (
    ArrayRef,
    BinOp,
    Expr,
    FuncRef,
    Num,
    UnOp,
    VarRef,
)
from ..fortran.printer import expr_to_str
from ..fortran.symbols import SymbolTable


@dataclass(frozen=True)
class Linear:
    """An affine form ``Σ coeffs[atom]·atom + const`` (exact arithmetic).

    Immutable; arithmetic returns new instances.  Zero coefficients are
    never stored.
    """

    coeffs: Tuple[Tuple[str, Fraction], ...] = ()
    const: Fraction = Fraction(0)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value) -> "Linear":
        return Linear((), Fraction(value))

    @staticmethod
    def atom(name: str, coeff=1) -> "Linear":
        c = Fraction(coeff)
        if c == 0:
            return Linear()
        return Linear(((name, c),), Fraction(0))

    @staticmethod
    def _from_dict(coeffs: Mapping[str, Fraction], const: Fraction) -> "Linear":
        items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
        return Linear(items, const)

    # -- queries -----------------------------------------------------------

    def coeff(self, name: str) -> Fraction:
        for k, v in self.coeffs:
            if k == name:
                return v
        return Fraction(0)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def constant_value(self) -> Optional[Fraction]:
        return self.const if self.is_constant else None

    def int_value(self) -> Optional[int]:
        if self.is_constant and self.const.denominator == 1:
            return int(self.const)
        return None

    def atoms(self) -> Tuple[str, ...]:
        return tuple(k for k, _ in self.coeffs)

    def drop(self, names) -> "Linear":
        """Remove the given atoms (used to project out loop indices)."""

        d = {k: v for k, v in self.coeffs if k not in names}
        return Linear._from_dict(d, self.const)

    def restrict(self, names) -> "Linear":
        """Keep only the given atoms, dropping the constant."""

        d = {k: v for k, v in self.coeffs if k in names}
        return Linear._from_dict(d, Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Linear") -> "Linear":
        d = dict(self.coeffs)
        for k, v in other.coeffs:
            d[k] = d.get(k, Fraction(0)) + v
        return Linear._from_dict(d, self.const + other.const)

    def __sub__(self, other: "Linear") -> "Linear":
        return self + other.scale(-1)

    def scale(self, factor) -> "Linear":
        f = Fraction(factor)
        if f == 0:
            return Linear()
        d = {k: v * f for k, v in self.coeffs}
        return Linear._from_dict(d, self.const * f)

    def __neg__(self) -> "Linear":
        return self.scale(-1)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for k, v in self.coeffs:
            parts.append(f"{v}*{k}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


#: Environment mapping variable names to known Linear values (from constant
#: propagation, PARAMETER statements or interprocedural constants).
Env = Mapping[str, Linear]


def linear_of_expr(
    expr: Expr,
    table: Optional[SymbolTable] = None,
    env: Optional[Env] = None,
) -> Linear:
    """Convert ``expr`` to a :class:`Linear` form.

    Variables resolve through ``env`` then PARAMETER constants, otherwise
    become atoms.  Nonlinear subterms become opaque atoms spelled
    ``@<source text>`` so identical terms cancel in differences.
    Never fails: everything unanalyzable is opaque.
    """

    env = env or {}
    if isinstance(expr, Num):
        if isinstance(expr.value, int):
            return Linear.constant(expr.value)
        if float(expr.value).is_integer():
            return Linear.constant(int(expr.value))
        return _opaque(expr)
    if isinstance(expr, VarRef):
        if expr.name in env:
            return env[expr.name]
        if table is not None:
            const = table.parameter_value(expr.name)
            if const is not None:
                return linear_of_expr(const, table, env)
        return Linear.atom(expr.name)
    if isinstance(expr, UnOp):
        if expr.op == "-":
            return -linear_of_expr(expr.operand, table, env)
        if expr.op == "+":
            return linear_of_expr(expr.operand, table, env)
        return _opaque(expr)
    if isinstance(expr, BinOp):
        left = linear_of_expr(expr.left, table, env)
        right = linear_of_expr(expr.right, table, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            if left.is_constant:
                return right.scale(left.const)
            if right.is_constant:
                return left.scale(right.const)
            return _opaque(expr)
        if expr.op == "/":
            if right.is_constant and right.const != 0:
                scaled = left.scale(Fraction(1) / right.const)
                # Integer division only commutes with scaling when exact.
                if all(v.denominator == 1 for _, v in scaled.coeffs) and (
                    scaled.const.denominator == 1
                ):
                    return scaled
            return _opaque(expr)
        if expr.op == "**":
            if right.is_constant and right.const == 1:
                return left
            if left.is_constant and right.is_constant:
                base = left.const
                exp = right.const
                if exp.denominator == 1 and exp >= 0:
                    return Linear.constant(base ** int(exp))
            return _opaque(expr)
        return _opaque(expr)
    if isinstance(expr, (ArrayRef, FuncRef)):
        return _opaque(expr)
    return _opaque(expr)


def _opaque(expr: Expr) -> Linear:
    return Linear.atom("@" + expr_to_str(expr))


def affine(
    expr: Expr,
    index_vars,
    table: Optional[SymbolTable] = None,
    env: Optional[Env] = None,
) -> Optional[Tuple[Dict[str, int], Linear]]:
    """Split ``expr`` into integer coefficients of ``index_vars`` plus rest.

    Returns ``(coeffs, remainder)`` where ``coeffs[var]`` is the integer
    coefficient of each index variable appearing in ``expr`` and
    ``remainder`` is the symbolic part with the index variables removed
    (may still contain unknown atoms).  Returns ``None`` when some index
    variable has a non-integer coefficient or appears inside an opaque
    atom — the subscript is then not affine in the loop indices and
    dependence testing must be conservative.
    """

    lin = linear_of_expr(expr, table, env)
    coeffs: Dict[str, int] = {}
    index_set = set(index_vars)
    for name, value in lin.coeffs:
        if name in index_set:
            if value.denominator != 1:
                return None
            coeffs[name] = int(value)
        elif name.startswith("@"):
            # An index variable hidden inside a nonlinear term?
            body = name[1:]
            for iv in index_set:
                if _mentions(body, iv):
                    return None
    remainder = lin.drop(index_set)
    return coeffs, remainder


def _mentions(text: str, name: str) -> bool:
    """Whole-word search of ``name`` inside rendered expression text."""

    i = 0
    n = len(name)
    while True:
        i = text.find(name, i)
        if i < 0:
            return False
        before_ok = i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")
        j = i + n
        after_ok = j >= len(text) or not (text[j].isalnum() or text[j] == "_")
        if before_ok and after_ok:
            return True
        i += 1
