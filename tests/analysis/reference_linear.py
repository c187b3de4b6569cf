"""Reference affine forms: the oracle for the integer-first ``Linear``.

This is the original ``Fraction``-only algebra: every coefficient and
constant is a :class:`fractions.Fraction`, whatever its value, and every
arithmetic result is rebuilt from a dict.  The production
:class:`repro.analysis.symbolic.Linear` keeps integral values as
``int``; ``tests/analysis/test_linear_oracle.py`` requires it to store
the same values as this one after any sequence of operations, and
:func:`linear_of_expr` / :func:`affine` to agree on any expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.symbolic import _mentions
from repro.fortran.ast_nodes import (
    ArrayRef,
    BinOp,
    Expr,
    FuncRef,
    Num,
    UnOp,
    VarRef,
)
from repro.fortran.printer import expr_to_str
from repro.fortran.symbols import SymbolTable


@dataclass(frozen=True)
class Linear:
    """An affine form ``Σ coeffs[atom]·atom + const`` over ``Fraction``."""

    coeffs: Tuple[Tuple[str, Fraction], ...] = ()
    const: Fraction = Fraction(0)

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
        d = {k: v for k, v in self.coeffs if k not in names}
        return Linear._from_dict(d, self.const)

    def restrict(self, names) -> "Linear":
        d = {k: v for k, v in self.coeffs if k in names}
        return Linear._from_dict(d, Fraction(0))

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


Env = Mapping[str, Linear]


def linear_of_expr(
    expr: Expr,
    table: Optional[SymbolTable] = None,
    env: Optional[Env] = None,
) -> Linear:
    """``expr`` as a reference form (opaque atoms for nonlinear terms)."""

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
    """Integer coefficients of ``index_vars`` plus the remainder, or
    ``None`` when the subscript is not affine in them."""

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
