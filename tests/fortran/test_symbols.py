"""Unit tests for symbol tables and the binder."""

import pytest

from repro.fortran import (
    ArrayRef,
    FuncRef,
    NameArgs,
    parse_and_bind,
    statement_exprs,
    unit_to_source,
    walk_expr,
    walk_statements,
)
from repro.fortran.errors import SemanticError
from repro.fortran.symbols import (
    COMMON,
    FORMAL,
    LOCAL,
    PARAM,
    Binder,
    implicit_type,
    int_const,
)
from repro.incremental import split_units
from repro.service.tasks import task_parse
from repro.workloads import SUITE
from repro.workloads.generator import generate_program


def bind(src):
    return parse_and_bind(src)


class TestImplicitTyping:
    @pytest.mark.parametrize("name", list("ijklmn"))
    def test_integer_letters(self, name):
        assert implicit_type(name) == "integer"

    @pytest.mark.parametrize("name", ["a", "x", "omega", "h"])
    def test_real_letters(self, name):
        assert implicit_type(name) == "real"


class TestSymbolTable:
    def test_declared_types(self):
        sf = bind("      program t\n      integer x\n      real i\n      end\n")
        tab = sf.units[0].symtab
        assert tab["x"].typename == "integer"
        assert tab["i"].typename == "real"

    def test_implicit_symbol_created_on_use(self):
        sf = bind("      program t\n      y = i + 1\n      end\n")
        tab = sf.units[0].symtab
        assert tab["i"].typename == "integer"
        assert tab["y"].typename == "real"

    def test_formals_marked(self):
        sf = bind("      subroutine s(a, n)\n      return\n      end\n")
        tab = sf.units[0].symtab
        assert tab["a"].storage == FORMAL
        assert tab["a"].formal_index == 0
        assert tab["n"].formal_index == 1

    def test_formal_array(self):
        sf = bind("      subroutine s(a, n)\n      real a(n)\n      a(1) = 0.\n      end\n")
        tab = sf.units[0].symtab
        assert tab["a"].storage == FORMAL
        assert tab["a"].is_array and tab["a"].rank == 1

    def test_common_members(self):
        sf = bind("      program t\n      common /c/ u, v(4)\n      end\n")
        tab = sf.units[0].symtab
        assert tab["u"].storage == COMMON
        assert tab["u"].common_block == "c"
        assert tab["v"].is_array
        assert tab.common_blocks["c"] == ["u", "v"]

    def test_parameter_constant(self):
        sf = bind("      program t\n      parameter (n = 8)\n      end\n")
        tab = sf.units[0].symtab
        assert tab["n"].storage == PARAM
        assert int_const(tab["n"].const_value) == 8

    def test_locals_default(self):
        sf = bind("      program t\n      x = 1.\n      end\n")
        assert sf.units[0].symtab["x"].storage == LOCAL

    def test_rank_mismatch_rejected(self):
        with pytest.raises(SemanticError):
            bind("      program t\n      real a(2, 2)\n      a(1) = 0.\n      end\n")

    def test_scalars_and_arrays_partition(self):
        sf = bind(
            "      program t\n      real a(3), x\n      integer n\n"
            "      parameter (n = 3)\n      end\n"
        )
        tab = sf.units[0].symtab
        assert {s.name for s in tab.arrays()} == {"a"}
        names = {s.name for s in tab.scalars()}
        assert "x" in names and "n" not in names


class TestIntConst:
    def wrap(self, expr_text, decls=""):
        src = "      program t\n"
        for d in decls.splitlines():
            src += f"      {d}\n"
        src += f"      i = {expr_text}\n      end\n"
        sf = bind(src)
        return sf.units[0].body[0].expr, sf.units[0].symtab

    def test_literal(self):
        e, t = self.wrap("42")
        assert int_const(e, t) == 42

    def test_arith(self):
        e, t = self.wrap("2 * 3 + 4")
        assert int_const(e, t) == 10

    def test_negative(self):
        e, t = self.wrap("-5")
        assert int_const(e, t) == -5

    def test_power(self):
        e, t = self.wrap("2 ** 6")
        assert int_const(e, t) == 64

    def test_division_truncates_toward_zero(self):
        e, t = self.wrap("7 / 2")
        assert int_const(e, t) == 3

    def test_parameter_reference(self):
        e, t = self.wrap("n + 1", decls="parameter (n = 9)")
        assert int_const(e, t) == 10

    def test_chained_parameters(self):
        e, t = self.wrap("m", decls="parameter (n = 4, m = n * n)")
        assert int_const(e, t) == 16

    def test_unknown_variable_is_none(self):
        e, t = self.wrap("k + 1")
        assert int_const(e, t) is None

    def test_real_literal_is_none(self):
        e, t = self.wrap("3")
        from repro.fortran import Num

        assert int_const(Num(0, 3.0), t) is None


#: Function units referenced as ``name(args)`` from other units, inside
#: and outside loops, next to an ``external`` declaration, a scalar
#: declared under a function's name and an intrinsic a unit defines.
WITH_FUNCTIONS = (
    "      program main\n"
    "      real x(10), f\n"
    "      external g\n"
    "      do i = 1, 10\n"
    "         x(i) = f(i) + g(i) + sqrt(x(i))\n"
    "      enddo\n"
    "      x(1) = h(2)\n"
    "      call s(x)\n"
    "      end\n"
    "      function f(i)\n"
    "      f = i * 2.0\n"
    "      end\n"
    "      real function g(k)\n"
    "      g = f(k) + 1.0\n"
    "      end\n"
    "      subroutine s(x)\n"
    "      real x(10)\n"
    "      do j = 1, 10\n"
    "         x(j) = x(j) + sqrt(g(j))\n"
    "      enddo\n"
    "      end\n"
    "      function sqrt(v)\n"
    "      sqrt = v\n"
    "      end\n"
)

BIND_ALONE = {
    **{name: SUITE[name].source for name in sorted(SUITE)},
    "generated-6x2": generate_program(6, 2),
    "with-functions": WITH_FUNCTIONS,
}


def _binding(unit):
    """What binding decided for one unit: its printed source, every
    reference's resolution (by statement) and every symbol's class."""

    refs = []
    for st in walk_statements(unit.body):
        for top in statement_exprs(st):
            for node in walk_expr(top):
                assert not isinstance(node, NameArgs)
                if isinstance(node, (ArrayRef, FuncRef)):
                    refs.append(
                        (
                            st.sid,
                            type(node).__name__,
                            node.name,
                            getattr(node, "intrinsic", None),
                        )
                    )
    symbols = {
        name: (sym.storage, sym.typename, sym.rank, sym.common_block)
        for name, sym in unit.symtab.symbols.items()
    }
    return unit_to_source(unit), refs, symbols


@pytest.mark.parametrize("name", sorted(BIND_ALONE))
def test_a_unit_binds_alone_as_in_its_program(name):
    """Binding reads one unit: each unit, parsed from its own span and
    bound with no other unit in sight, binds exactly as it does in the
    whole file."""

    source = BIND_ALONE[name]
    whole = parse_and_bind(source).units
    alone = []
    for span in split_units(source):
        for unit in task_parse(span):
            Binder().bind_unit(unit)
            alone.append(unit)
    assert [u.name for u in alone] == [u.name for u in whole]
    for a, w in zip(alone, whole):
        assert _binding(a) == _binding(w), a.name
