"""Symbolic (affine) expression algebra.

Dependence testing needs subscripts as *linear forms* over loop induction
variables plus symbolic unknowns:  ``a(2*i + n - 1)`` becomes
``2·i + 1·n + (-1)``.  The :class:`Linear` class represents
``Σ coeff·atom + const`` with exact arithmetic.  Fortran subscripts,
bounds and constants are integers, so a form holds each coefficient and
its constant as an ``int`` where integral and as a
:class:`fractions.Fraction` only otherwise (the quotient
:func:`linear_of_expr` tries for ``(2*i + 1)/2``, say).

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
from typing import Dict, Mapping, Optional, Tuple, Union

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


#: A coefficient or constant: an ``int`` when integral, else a ``Fraction``.
Number = Union[int, Fraction]


def _num(value) -> Number:
    """The normal form of a coefficient or constant: ``value`` as an
    ``int`` when it is integral, as a ``Fraction`` otherwise.

    Every value a :class:`Linear` stores passes through here, so
    integral values never carry a ``Fraction`` (or a ``bool``).
    """

    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


@dataclass(frozen=True)
class Linear:
    """An affine form ``Σ coeffs[atom]·atom + const`` (exact arithmetic).

    Immutable; arithmetic returns new instances.  Zero coefficients are
    never stored, and every stored value is in :func:`_num`'s normal
    form.  An ``int`` and the equal ``Fraction`` compare and hash alike,
    so forms built either way are interchangeable as keys.
    """

    coeffs: Tuple[Tuple[str, Number], ...] = ()
    const: Number = 0

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value) -> "Linear":
        return Linear((), _num(value))

    @staticmethod
    def atom(name: str, coeff=1) -> "Linear":
        c = _num(coeff)
        if c == 0:
            return Linear()
        return Linear(((name, c),), 0)

    @staticmethod
    def _from_dict(coeffs: Mapping[str, Number], const) -> "Linear":
        items = sorted((k, _num(v)) for k, v in coeffs.items() if v != 0)
        return Linear(tuple(items), _num(const))

    # -- queries -----------------------------------------------------------

    def coeff(self, name: str) -> Number:
        for k, v in self.coeffs:
            if k == name:
                return v
        return 0

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def constant_value(self) -> Optional[Number]:
        return self.const if self.is_constant else None

    def int_value(self) -> Optional[int]:
        if self.is_constant and type(self.const) is int:
            return self.const
        return None

    def atoms(self) -> Tuple[str, ...]:
        return tuple(k for k, _ in self.coeffs)

    def drop(self, names) -> "Linear":
        """Remove the given atoms (used to project out loop indices)."""

        kept = tuple((k, v) for k, v in self.coeffs if k not in names)
        return Linear(kept, self.const)

    def restrict(self, names) -> "Linear":
        """Keep only the given atoms, dropping the constant."""

        return Linear(tuple((k, v) for k, v in self.coeffs if k in names), 0)

    # -- arithmetic ----------------------------------------------------------
    #
    # Removing atoms or scaling by a nonzero factor keeps the coefficients
    # sorted and nonzero, so only a merge of two atom lists rebuilds them.

    def __add__(self, other: "Linear") -> "Linear":
        if not other.coeffs:
            return Linear(self.coeffs, _num(self.const + other.const))
        if not self.coeffs:
            return Linear(other.coeffs, _num(self.const + other.const))
        d = dict(self.coeffs)
        for k, v in other.coeffs:
            d[k] = d.get(k, 0) + v
        return Linear._from_dict(d, self.const + other.const)

    def __sub__(self, other: "Linear") -> "Linear":
        if not other.coeffs:
            return Linear(self.coeffs, _num(self.const - other.const))
        if not self.coeffs:
            return Linear(
                tuple((k, -v) for k, v in other.coeffs),
                _num(self.const - other.const),
            )
        d = dict(self.coeffs)
        for k, v in other.coeffs:
            d[k] = d.get(k, 0) - v
        return Linear._from_dict(d, self.const - other.const)

    def scale(self, factor) -> "Linear":
        f = _num(factor)
        if f == 1:
            return self
        if f == 0:
            return Linear()
        return Linear(
            tuple((k, _num(v * f)) for k, v in self.coeffs),
            _num(self.const * f),
        )

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
                if type(scaled.const) is int and all(
                    type(v) is int for _, v in scaled.coeffs
                ):
                    return scaled
            return _opaque(expr)
        if expr.op == "**":
            if right.is_constant and right.const == 1:
                return left
            if left.is_constant and right.is_constant:
                exp = right.const
                if type(exp) is int and exp >= 0:
                    return Linear.constant(left.const**exp)
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
            if type(value) is not int:
                return None
            coeffs[name] = value
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
