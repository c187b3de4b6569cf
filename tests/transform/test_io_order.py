"""Power steering keeps the order of a program's output.

Reversing, interchanging or distributing a loop that does I/O, and
swapping two I/O statements, reorder what the program prints although
no data dependence stands in the way.  Each is advised unsafe, like
parallelizing such a loop, and every transformation the advice does
call safe leaves the interpreter's output as it was.
"""

import pytest

from repro.editor.session import PedError, PedSession
from repro.fortran import parse_and_bind
from repro.fortran.ast_nodes import DoLoop, walk_statements
from repro.perf import Interpreter

#: A 3x3 nest that prints from its inner body.
NEST = """      program nest
      real a(3, 3)
      do i = 1, 3
         do j = 1, 3
            a(i, j) = i + 10.0 * j
            write (6, *) i, j, a(i, j)
         end do
      end do
      end
"""

#: Two independent writes in one loop (lines 8 and 9).
PAIR = """      program pair
      real a(4), b(4)
      do i = 1, 4
         a(i) = i
         b(i) = 10.0 * i
      end do
      do i = 1, 4
         write (6, *) a(i)
         write (6, *) b(i)
      end do
      end
"""

LOOP_TRANSFORMS = [
    ("parallelize", {}),
    ("reverse", {}),
    ("interchange", {}),
    ("distribute", {}),
    ("skew", {}),
    ("stripmine", {"size": 2}),
    ("unroll", {"factor": 2}),
]


def run(sf_or_src, doall_order="forward"):
    if isinstance(sf_or_src, str):
        sf_or_src = parse_and_bind(sf_or_src)
    return Interpreter(sf_or_src, doall_order=doall_order).run()


@pytest.mark.parametrize(
    "source, loop, refused",
    [
        (NEST, 0, ["parallelize", "reverse", "interchange"]),
        (NEST, 1, ["parallelize", "reverse"]),
        (PAIR, 1, ["parallelize", "reverse", "distribute"]),
    ],
    ids=["nest-outer", "nest-inner", "pair-writes"],
)
def test_reordering_a_loop_that_does_io_is_unsafe(source, loop, refused):
    session = PedSession(source)
    session.select_loop(loop)
    for name in refused:
        advice = session.diagnose(name)
        assert not advice.safe, (name, advice.describe())
        assert "I/O statement" in advice.describe(), name
        with pytest.raises(PedError):
            session.apply(name)
    assert run(session.sf) == run(source)


def test_swapping_two_writes_is_unsafe():
    session = PedSession(PAIR)
    advice = session.diagnose("swap", line=8)
    assert not advice.safe, advice.describe()
    with pytest.raises(PedError):
        session.apply("swap", line=8)
    assert run(session.sf) == run(PAIR)


@pytest.mark.parametrize("source", [NEST, PAIR], ids=["nest", "pair"])
def test_every_transformation_advised_safe_keeps_the_output(source):
    reference = run(source)
    probe = PedSession(source)
    steps = [
        ({"loop": index}, name, kwargs)
        for index in range(len(probe.loops()))
        for name, kwargs in LOOP_TRANSFORMS
    ] + [
        ({}, "swap", {"line": st.line})
        for st in walk_statements(probe.unit.body)
        if not isinstance(st, DoLoop)
    ]
    applied = []
    for select, name, kwargs in steps:
        session = PedSession(source)
        if "loop" in select:
            session.select_loop(select["loop"])
        if not session.diagnose(name, **kwargs).ok:
            continue
        session.apply(name, **kwargs)
        applied.append(name)
        for order in ("forward", "reversed"):
            assert run(session.sf, order) == reference, (name, session.source)
    assert applied, "some transformation must be advised safe"
