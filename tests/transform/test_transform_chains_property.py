"""Property test: random chains of *advised-safe* transformations
preserve program semantics.

The power-steering contract is that any transformation whose Advice says
``ok`` may be applied without changing results.  We generate small
programs, repeatedly pick a random (transformation, target) pair, apply
it only when the diagnosis approves, and compare interpreter output with
the original after every step.  "Applicable" means ``apply`` succeeds:
an approved transformation whose ``apply`` raises fails the test.

Each step also checks what the session's write-back relies on: the
transformation touched no unit but the one it rewrote (the untouched
``bump`` prints as before, from its old AST and from the new parse), and
the session, which reanalyzed only what moved, matches a from-scratch
analysis of its new source.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.editor.session import PedSession
from repro.fortran import parse_and_bind
from repro.fortran.printer import unit_to_source
from repro.incremental import AnalysisEngine
from repro.incremental.fingerprint import fingerprint_digest
from repro.perf import Interpreter

N = 10


@st.composite
def base_programs(draw):
    stencil = draw(st.sampled_from([
        "a(i) = b(i) + 1.0",
        "a(i) = a(i) * 0.5",
        "a(i) = b(i) + c(i)",
        "t = b(i) * 2.0\nc(i) = t",
        "s = s + b(i)",
    ]))
    second = draw(st.sampled_from([
        "c(i) = a(i) + b(i)",
        "b(i) = 2.0 * a(i)",
        "s = s + a(i)",
    ]))
    lines = [
        "      program p",
        "      integer n",
        f"      parameter (n = {N})",
        "      real a(n), b(n), c(n), s, t",
        "      common /res/ s",
        "      do i = 1, n",
        "         a(i) = 0.1 * i",
        "         b(i) = 0.2 * i",
        "         c(i) = 0.0",
        "      end do",
        "      s = 0.0",
        "      do i = 1, n",
    ]
    for text in stencil.splitlines():
        lines.append("         " + text)
    lines.append("      end do")
    lines.append("      do i = 1, n")
    for text in second.splitlines():
        lines.append("         " + text)
    lines.append("      end do")
    lines.append("      call bump(c, n)")
    lines.append("      write (6, *) s, a(3), b(4), c(5)")
    lines.append("      end")
    lines.append("c     a routine no transformation here rewrites")
    lines.append("      subroutine bump(x, m)")
    lines.append("      real x(m)")
    lines.append("      do k = 1, m")
    lines.append("         x(k) = x(k) + 1.0")
    lines.append("      enddo")
    lines.append("      end")
    return "\n".join(lines) + "\n"


TRANSFORMS = [
    ("parallelize", {}),
    ("reverse", {}),
    ("stripmine", {"size": 4}),
    ("unroll", {"factor": 2}),
    ("unroll", {}),
    ("fuse", {}),
    ("distribute", {}),
    ("reduction", {}),
]


@settings(max_examples=40, deadline=None)
@given(
    source=base_programs(),
    choices=st.lists(
        st.tuples(st.integers(0, len(TRANSFORMS) - 1), st.integers(0, 5)),
        min_size=1,
        max_size=5,
    ),
)
def test_advised_safe_chains_preserve_semantics(source, choices):
    reference = Interpreter(parse_and_bind(source)).run()
    session = PedSession(source)
    for t_idx, loop_choice in choices:
        name, kwargs = TRANSFORMS[t_idx]
        loops = session.loops()
        if not loops:
            break
        session.select_loop(loop_choice % len(loops))
        advice = session.diagnose(name, **kwargs)
        if not (advice.applicable and advice.safe):
            continue
        others = [
            (u, unit_to_source(u))
            for u in session.sf.units
            if u.name != session.current_unit
        ]
        session.apply(name, **kwargs)
        out = Interpreter(session.sf, doall_order="shuffled").run()
        assert out == reference, (name, session.source)
        for unit, text in others:
            assert unit_to_source(unit) == text, (name, unit.name)
            assert unit_to_source(session.sf.unit(unit.name)) == text
        _, scratch = AnalysisEngine().analyze(session.source)
        assert fingerprint_digest(session.analysis) == fingerprint_digest(
            scratch
        ), (name, session.source)
