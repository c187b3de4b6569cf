"""Unit tests for subscript classification and the hierarchy driver."""

import pytest

from repro.assertions import AssertionDB
from repro.dependence import analyze_unit
from repro.dependence.references import ArrayAccess, SectionDim
from repro.dependence.subscript import (
    FULL,
    MIV,
    NONLINEAR,
    RANGE,
    SIV,
    ZIV,
    pair_subscripts,
)
from repro.fortran import parse_and_bind

from tests.dependence.reference_walk import recorded_pairs


def accesses_of(assign_text, decls="real a(50, 50), b(50)\ninteger ip(50)"):
    src = "      program t\n"
    for d in decls.splitlines():
        src += f"      {d}\n"
    src += "      do j = 1, 50\n      do i = 1, 50\n"
    src += f"      {assign_text}\n"
    src += "      end do\n      end do\n      end\n"
    unit = parse_and_bind(src).units[0]
    from repro.dependence.references import collect_refs

    return unit, collect_refs(unit)


def classify(assign_text, array, **kw):
    unit, refs = accesses_of(assign_text, **kw)
    mine = [r for r in refs if r.array == array]
    write = next(r for r in mine if r.is_write)
    read = next(r for r in mine if not r.is_write)
    return pair_subscripts(write, read, ["j", "i"], unit.symtab)


class TestClassification:
    def test_ziv(self):
        pairs = classify("b(1) = b(2)", "b", decls="real b(50)")
        assert pairs[0].kind == ZIV

    def test_siv(self):
        pairs = classify("b(i) = b(i-1)", "b", decls="real b(50)")
        assert pairs[0].kind == SIV

    def test_siv_one_side_only(self):
        pairs = classify("b(i) = b(5)", "b", decls="real b(50)")
        assert pairs[0].kind == SIV

    def test_miv(self):
        pairs = classify("b(i + j) = b(i)", "b", decls="real b(120)")
        assert pairs[0].kind == MIV

    def test_two_positions_independent_kinds(self):
        pairs = classify("a(i, j) = a(i, 3)", "a")
        assert pairs[0].kind == SIV
        assert pairs[1].kind == SIV

    def test_nonlinear(self):
        pairs = classify(
            "b(ip(i)) = b(ip(i))", "b", decls="real b(50)\ninteger ip(50)"
        )
        assert pairs[0].kind == NONLINEAR

    def test_injective_look_through(self):
        unit, refs = accesses_of(
            "b(ip(i)) = b(ip(i)) + 1.0", decls="real b(50)\ninteger ip(50)"
        )
        mine = [r for r in refs if r.array == "b"]
        write = next(r for r in mine if r.is_write)
        read = next(r for r in mine if not r.is_write)
        db = AssertionDB()
        db.add("distinct ip")
        pairs = pair_subscripts(write, read, ["j", "i"], unit.symtab, oracle=db)
        assert pairs[0].kind == SIV

    def test_section_point_vs_point(self):
        # Section dims that are points classify through the point path.
        unit, refs = accesses_of("b(i) = b(i)", decls="real b(50)")
        write = next(r for r in refs if r.array == "b" and r.is_write)
        import repro.fortran.ast_nodes as ast

        j = ast.VarRef(0, "j")
        section_acc = ArrayAccess(
            "b", 99, write.stmt, True, write.nest,
            section=[SectionDim(lo=j, hi=j)],
        )
        pairs = pair_subscripts(write, section_acc, ["j", "i"], unit.symtab)
        assert pairs[0].kind in (SIV, MIV)

    def test_section_full(self):
        unit, refs = accesses_of("b(i) = b(i)", decls="real b(50)")
        write = next(r for r in refs if r.array == "b" and r.is_write)
        section_acc = ArrayAccess(
            "b", 99, write.stmt, True, write.nest,
            section=[SectionDim(full=True)],
        )
        pairs = pair_subscripts(write, section_acc, ["j", "i"], unit.symtab)
        assert pairs[0].kind == FULL

    def test_rank_mismatch_pads_full(self):
        unit, refs = accesses_of("b(i) = b(i)", decls="real b(50)")
        write = next(r for r in refs if r.array == "b" and r.is_write)
        wide = ArrayAccess(
            "b", 99, write.stmt, True, write.nest,
            section=[SectionDim(full=True), SectionDim(full=True)],
        )
        pairs = pair_subscripts(write, wide, ["j", "i"], unit.symtab)
        assert len(pairs) == 2
        assert pairs[1].kind == FULL


class TestTesterDetails:
    def _pair(self, write_sub, read_sub, read_loop=None):
        """The write/read pair of ``b`` in a loop over ``i``; with
        ``read_loop`` the read sits alone in a second loop over that
        variable instead."""

        write = f"      b({write_sub}) = 1.0\n"
        read = f"      x = b({read_sub})\n"
        if read_loop is None:
            body = f"      do i = 1, 50\n{write}{read}      end do\n"
        else:
            body = (
                f"      do i = 1, 50\n{write}      end do\n"
                f"      do {read_loop} = 1, 50\n{read}      end do\n"
            )
        src = f"      program t\n      real b(200), x\n{body}      end\n"
        with recorded_pairs() as pairs_of:
            ua = analyze_unit(parse_and_bind(src).units[0])
        (result,) = [
            r for r in pairs_of(ua) if r.src.is_write != r.snk.is_write
        ]
        return result, ua.tester

    def test_distance_vector_refined(self):
        result, _ = self._pair("i", "i-3")
        assert not result.independent
        vectors = [v.vector for v in result.vectors]
        assert (3,) in vectors

    def test_self_output_pair_independent(self):
        result, _ = self._pair("i", "i")
        # Same element only in the same iteration: only the all-'='
        # vector survives.
        assert all(
            all((x == 0 or x == "=") for x in v.vector) for v in result.vectors
        )

    def test_resolved_by_recorded(self):
        result, tester = self._pair("i", "i-1")
        assert result.resolved_by in ("siv", "banerjee")
        assert tester.pair_resolution

    def test_tests_run_counts(self):
        result, _ = self._pair("2*i", "2*i+1")
        assert result.independent
        assert result.tests_run.get("siv", 0) > 0

    def test_no_common_nest(self):
        result, _ = self._pair("i", "j-1", read_loop="j")
        # Without a common nest the pair still reports (loop-independent
        # constellation); never crashes.
        assert not result.independent
        assert [v.vector for v in result.vectors] == [()]
