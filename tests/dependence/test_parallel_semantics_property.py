"""The reproduction's central safety property, tested end to end.

If the analysis says a loop is parallelizable and Ped marks it DOALL,
executing the loop's iterations in *any* order must produce the same
results.  We generate random small programs, auto-parallelize with
analysis alone, and compare interpreter runs under forward / reversed /
shuffled DOALL ordering — a direct executable check of the dependence
analyzer's soundness on whole programs.  The programs print ``s`` and
every array element.

Generated programs (:func:`generate_program`) carry the check through
calls: their ``driver`` loops are DOALL only because interprocedural
array sections show each ``upd<r>`` call touching its own column.
There the COMMON ``/grid/`` memory after the run is compared as well.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core import parallelize_program
from repro.fortran import parse_and_bind
from repro.perf import Interpreter
from repro.workloads.generator import generate_program

arrays = ["a", "b", "c"]
N = 12


@st.composite
def offsets(draw):
    return draw(st.integers(-2, 2))


@st.composite
def subscripts(draw):
    # About one draw in four is a constant element inside the loop's
    # range, which the weak-zero SIV test must place in the right
    # iteration whichever side of the pair it is on.
    if draw(st.integers(0, 3)) == 0:
        return str(draw(st.integers(3, N - 2)))
    off = draw(offsets())
    if off == 0:
        return "i"
    if off > 0:
        return f"i+{off}"
    return f"i-{-off}"


@st.composite
def loop_statements(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        dst = draw(st.sampled_from(arrays))
        src = draw(st.sampled_from(arrays))
        return f"{dst}({draw(subscripts())}) = {src}({draw(subscripts())}) + 1.0"
    if kind == 1:
        dst = draw(st.sampled_from(arrays))
        return f"{dst}(i) = {draw(st.integers(0, 9))}.0"
    if kind == 2:
        return f"s = s + {draw(st.sampled_from(arrays))}(i)"
    dst = draw(st.sampled_from(arrays))
    src = draw(st.sampled_from(arrays))
    return f"t = {src}({draw(subscripts())}) * 2.0\n{dst}(i) = t"


@st.composite
def programs(draw):
    n_loops = draw(st.integers(1, 3))
    return render([draw(loop_statements()) for _ in range(n_loops)])


def render(bodies):
    """The program around the given loop bodies, one loop each."""

    lines = [
        "      program p",
        "      integer n",
        f"      parameter (n = {N})",
        "      real a(n), b(n), c(n), s, t",
        "      do i = 1, n",
        "         a(i) = 0.1 * i",
        "         b(i) = 0.2 * i",
        "         c(i) = 1.0",
        "      end do",
        "      s = 0.0",
    ]
    for body in bodies:
        lines.append("      do i = 3, n - 2")
        for text in body.splitlines():
            lines.append("         " + text)
        lines.append("      end do")
    # Every element is printed, so a DOALL that corrupts any of them
    # changes the output (the parser takes no implied-DO WRITE lists).
    lines.append("      write (6, *) s")
    lines.append("      do k = 1, n")
    lines.append("         write (6, *) a(k), b(k), c(k)")
    lines.append("      end do")
    lines.append("      end")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(programs())
# The read of a(5) meets the write of a(i) at i = 5: the constant sits
# on the source side of the pair.
@example(render(["t = a(5) * 2.0\na(i) = t"]))
def test_doall_marking_is_order_independent(source):
    reference = Interpreter(parse_and_bind(source)).run()
    result = parallelize_program(source, require_profitable=False)
    transformed = parse_and_bind(result.source)
    for order in ("forward", "reversed", "shuffled"):
        out = Interpreter(transformed, doall_order=order).run()
        assert out == reference, (order, result.source)


@settings(max_examples=60, deadline=None)
@given(programs())
def test_auto_parallelizer_never_crashes(source):
    result = parallelize_program(source, require_profitable=False)
    # The rewritten source must stay parseable and runnable.
    Interpreter(parse_and_bind(result.source)).run()


@pytest.mark.parametrize("routines,fields", [(4, 1), (6, 2), (9, 3)])
def test_doall_through_calls_is_order_independent(routines, fields):
    source = generate_program(routines, fields)
    serial = Interpreter(parse_and_bind(source))
    reference = (serial.run(), serial.snapshot())
    result = parallelize_program(source, require_profitable=False)
    assert any(unit == "driver" for unit, _ in result.parallelized)
    transformed = parse_and_bind(result.source)
    for order in ("forward", "reversed", "shuffled"):
        run = Interpreter(transformed, doall_order=order)
        assert (run.run(), run.snapshot()) == reference, order
