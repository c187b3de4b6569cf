"""Heavily used scalars keep every loop-independent dependence edge.

Statement interchange and loop distribution decide legality from the
scalar edges between straight-line statements.  A scalar with more
than 24 defs plus uses once lost all of those edges, and both
transformations then made illegal rewrites that changed the output.
"""

import pytest

from repro.editor.session import PedError, PedSession
from repro.fortran import parse_and_bind
from repro.perf import Interpreter

#: Enough readers of ``t`` to pass the old 24 defs-plus-uses cap.
USES = 22


def run(sf_or_src):
    if isinstance(sf_or_src, str):
        return Interpreter(parse_and_bind(sf_or_src)).run()
    return Interpreter(sf_or_src).run()


def swap_source(uses: int = USES) -> str:
    lines = ["      program p", "      t = 2.0", "      y = t"]
    lines += [f"      y{k} = t + {k}.0" for k in range(uses)]
    lines += ["      t = 5.0", "      write (6, *) y, y0, t", "      end"]
    return "\n".join(lines) + "\n"


DISTRIBUTE_SOURCE = """      program p
      integer n
      parameter (n = 10)
      real a(n), b(n), c(n), t
      do i = 1, n
         a(i) = 0.1 * i
         c(i) = 0.0
      end do
      do i = 1, n
         t = a(i) * 2.0
         b(i) = t
{}      end do
      do k = 1, n
         write (6, *) b(k), c(k)
      end do
      end
""".format("".join(f"         c(i) = c(i) + t * {k}.0\n" for k in range(1, 26)))


@pytest.mark.parametrize("uses", [5, USES])
def test_swap_refuses_to_move_a_def_past_its_reader(uses):
    source = swap_source(uses)
    session = PedSession(source)
    advice = session.diagnose("swap", line=2)  # t = 2.0 <-> y = t
    assert not advice.safe, advice.describe()
    assert "true dependence on t" in advice.describe()
    with pytest.raises(PedError):
        session.apply("swap", line=2)
    assert run(session.sf) == run(source)


def test_distribute_keeps_statements_that_share_a_scalar_together():
    session = PedSession(DISTRIBUTE_SOURCE)
    session.select_loop(1)
    advice = session.diagnose("distribute")
    # Every statement reads t, so the body is one dependence group.
    assert not advice.profitable, advice.describe()
    with pytest.raises(PedError):
        session.apply("distribute")
    assert run(session.sf) == run(DISTRIBUTE_SOURCE)
