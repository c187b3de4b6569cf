"""The integer-first ``Linear`` against the ``Fraction``-only reference.

Production forms keep integral coefficients and constants as ``int``
and use ``Fraction`` only for non-integral values.  The reference in
``reference_linear.py`` stores ``Fraction`` everywhere.  Both must hold
the same values after any sequence of operations and agree on every
expression, and production forms must hash like the reference's, so
memo keys, dependence-cache keys and fingerprints do not move.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given

from repro.analysis import symbolic
from repro.assertions.engine import _scalar_ratio
from repro.fortran import parse_and_bind
from repro.fortran.ast_nodes import BinOp, Num, UnOp, VarRef
from tests.analysis import reference_linear as ref

ATOMS = ("i", "j", "n", "m")
INDEX_VARS = ("i", "j")

#: PARAMETER constants the expression trees may name.
_TABLE = parse_and_bind(
    "      program t\n"
    "      integer np, nq, nr\n"
    "      parameter (np = 3, nq = -2, nr = 2*np + 1)\n"
    "      end\n"
).units[0].symtab


def _env(cls):
    """Known values in either representation: an integral form, a
    non-integral one and two constants."""

    n = cls.atom("n")
    return {
        "k": n.scale(2) + cls.constant(1),
        "h": n.scale(Fraction(1, 2)) + cls.constant(Fraction(1, 3)),
        "q": cls.constant(Fraction(3, 2)),
        "z": cls.constant(4),
    }


ENV = _env(symbolic.Linear)
REF_ENV = _env(ref.Linear)


def assert_normal(lin):
    """Every stored value is an ``int``, or a ``Fraction`` that is not."""

    for value in [v for _, v in lin.coeffs] + [lin.const]:
        assert type(value) is int or (
            type(value) is Fraction and value.denominator != 1
        ), lin


def assert_same(lin, ref_lin):
    assert lin.coeffs == ref_lin.coeffs
    assert lin.const == ref_lin.const
    assert hash(lin) == hash(ref_lin)
    assert_normal(lin)


values = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
)
_index = st.integers(0, 63)
_names = st.frozensets(st.sampled_from(ATOMS))

leaves = st.one_of(
    st.tuples(st.just("constant"), values),
    st.tuples(st.just("atom"), st.sampled_from(ATOMS), values),
)
operations = st.one_of(
    st.tuples(st.sampled_from(("add", "sub")), _index, _index),
    st.tuples(st.just("scale"), _index, values),
    st.tuples(st.sampled_from(("drop", "restrict")), _index, _names),
    st.tuples(st.just("neg"), _index),
)


def _build(cls, leaf):
    if leaf[0] == "constant":
        return cls.constant(leaf[1])
    return cls.atom(leaf[1], leaf[2])


def _apply(regs, op):
    kind, a = op[0], regs[op[1] % len(regs)]
    if kind == "add":
        return a + regs[op[2] % len(regs)]
    if kind == "sub":
        return a - regs[op[2] % len(regs)]
    if kind == "scale":
        return a.scale(op[2])
    if kind == "drop":
        return a.drop(op[2])
    if kind == "restrict":
        return a.restrict(op[2])
    return -a


@given(
    st.lists(leaves, min_size=1, max_size=4),
    st.lists(operations, max_size=16),
)
# Results that are integral although an operand is not.
@example([("atom", "n", 2)], [("scale", 0, Fraction(1, 2))])
@example(
    [("atom", "n", Fraction(1, 2)), ("constant", Fraction(2, 3))],
    [("add", 0, 0), ("scale", 1, 3), ("sub", 0, 1), ("neg", 3)],
)
def test_operation_sequences_match_reference(start, ops):
    regs = [_build(symbolic.Linear, leaf) for leaf in start]
    ref_regs = [_build(ref.Linear, leaf) for leaf in start]
    for lin, ref_lin in zip(regs, ref_regs):
        assert_same(lin, ref_lin)
    for op in ops:
        regs.append(_apply(regs, op))
        ref_regs.append(_apply(ref_regs, op))
        assert_same(regs[-1], ref_regs[-1])
        assert regs[-1].int_value() == ref_regs[-1].int_value()


# -- expression trees --------------------------------------------------------

_leaf_exprs = st.one_of(
    st.integers(-20, 20).map(lambda v: Num(0, v)),
    st.sampled_from((2.0, 0.5)).map(lambda v: Num(0, v)),
    st.sampled_from(ATOMS + ("np", "nq", "nr") + tuple(ENV)).map(
        lambda name: VarRef(0, name)
    ),
)
# Exponents stay small literals or names, so powers stay small numbers.
_exponents = st.one_of(
    st.integers(0, 3).map(lambda v: Num(0, v)),
    st.sampled_from(("np", "nq", "n", "q", "z")).map(
        lambda name: VarRef(0, name)
    ),
)


def _compound(children):
    return st.one_of(
        st.builds(
            lambda op, left, right: BinOp(0, op, left, right),
            st.sampled_from(("+", "-", "*", "/")),
            children,
            children,
        ),
        st.builds(
            lambda base, exp: BinOp(0, "**", base, exp), children, _exponents
        ),
        children.map(lambda operand: UnOp(0, "-", operand)),
    )


exprs = st.recursive(_leaf_exprs, _compound, max_leaves=10)


def _halved_index():
    # (2*i + 4) / 2
    twice = BinOp(0, "*", Num(0, 2), VarRef(0, "i"))
    return BinOp(0, "/", BinOp(0, "+", twice, Num(0, 4)), Num(0, 2))


def _doubled_half():
    # h * 2 with h = n/2 + 1/3
    return BinOp(0, "*", VarRef(0, "h"), Num(0, 2))


@given(exprs)
@example(_halved_index())
@example(_doubled_half())
def test_linear_of_expr_matches_reference(expr):
    assert_same(
        symbolic.linear_of_expr(expr, _TABLE, ENV),
        ref.linear_of_expr(expr, _TABLE, REF_ENV),
    )


@given(exprs)
@example(_halved_index())
@example(BinOp(0, "*", VarRef(0, "i"), VarRef(0, "q")))
def test_affine_matches_reference(expr):
    got = symbolic.affine(expr, INDEX_VARS, _TABLE, ENV)
    want = ref.affine(expr, INDEX_VARS, _TABLE, REF_ENV)
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[0] == want[0]
    assert all(type(c) is int for c in got[0].values())
    assert_same(got[1], want[1])


# -- consumers that divide coefficient values --------------------------------


def test_scalar_ratio_divides_exactly():
    """On two ints ``ac / bc`` divides in floating point, and
    ``49 * (1/49)`` is not 1."""

    n = symbolic.Linear.atom("n")
    one = symbolic.Linear.constant(1)
    ratio = _scalar_ratio(n + one, n.scale(49) + one.scale(49))
    assert ratio == Fraction(1, 49)


@given(st.lists(leaves, min_size=1, max_size=4), values)
def test_scalar_ratio_recovers_the_factor(start, factor):
    b = ref_b = None
    for leaf in start:
        lin, ref_lin = _build(symbolic.Linear, leaf), _build(ref.Linear, leaf)
        b = lin if b is None else b + lin
        ref_b = ref_lin if ref_b is None else ref_b + ref_lin
    got = _scalar_ratio(b.scale(factor), b)
    assert got == _scalar_ratio(ref_b.scale(factor), ref_b)
    if b.coeffs and factor != 0:
        assert got == factor
