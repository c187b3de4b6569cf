"""Regression tests for the scalar-communication hazards in the
restructuring transformations (found by the property tests).

A scalar carries only its most recent value, so statements/loops
communicating through one cannot be separated (distribution), merged
(fusion) or reordered (interchange) without changing which value each
reader observes.
"""

import pytest

from repro.editor.session import PedError, PedSession
from repro.fortran import parse_and_bind
from repro.perf import Interpreter


def run(sf_or_src):
    if isinstance(sf_or_src, str):
        return Interpreter(parse_and_bind(sf_or_src)).run()
    return Interpreter(sf_or_src).run()


class TestDistributionScalarHazard:
    SRC = """      program p
      integer n
      parameter (n = 10)
      real b(n), c(n), t
      common /r/ b, c
      do i = 1, n
         b(i) = 0.2 * i
      end do
      do i = 1, n
         t = b(i) * 2.0
         c(i) = t
      end do
      write (6, *) c(4), c(10)
      end
"""

    def test_scalar_pair_not_split(self):
        session = PedSession(self.SRC)
        session.select_loop(1)
        advice = session.diagnose("distribute")
        # Both statements communicate through t: one dependence group,
        # so there is nothing to distribute.
        assert not advice.applicable
        assert not advice.profitable

    def test_semantics_preserved_if_forced(self):
        # Even via apply, the partition keeps the pair together (an
        # inapplicable distribution raises rather than miscompiling).
        session = PedSession(self.SRC)
        session.select_loop(1)
        reference = run(self.SRC)
        with pytest.raises(PedError):
            session.apply("distribute")
        assert run(session.sf) == reference

    def test_array_pipeline_still_splits(self):
        src = self.SRC.replace("t = b(i) * 2.0", "c(i) = b(i) * 2.0").replace(
            "c(i) = t", "c(i) = c(i) + 1.0"
        )
        session = PedSession(src)
        session.select_loop(1)
        reference = run(src)
        session.apply("distribute")
        assert run(session.sf) == reference


class TestFusionScalarHazard:
    SRC = """      program p
      integer n
      parameter (n = 10)
      real b(n), c(n), t
      common /r/ b, c
      t = 0.0
      do i = 1, n
         t = b(i) + 1.0
      end do
      do i = 1, n
         c(i) = t
      end do
      write (6, *) c(3)
      end
"""

    def test_scalar_crossflow_prevents_fusion(self):
        session = PedSession(self.SRC)
        session.select_loop(0)
        advice = session.diagnose("fuse")
        assert advice.applicable and not advice.safe
        assert "t" in advice.reasons[0]

    def test_backward_crossflow_prevents_fusion(self):
        src = """      program p
      integer n
      parameter (n = 10)
      real b(n), c(n), t
      common /r/ b, c
      t = 5.0
      do i = 1, n
         c(i) = t
      end do
      do i = 1, n
         t = b(i)
      end do
      write (6, *) c(3), t
      end
"""
        session = PedSession(src)
        session.select_loop(0)
        advice = session.diagnose("fuse")
        assert not advice.safe

    def test_killed_scalar_in_second_loop_fuses(self):
        src = """      program p
      integer n
      parameter (n = 10)
      real b(n), c(n), t
      common /r/ b, c
      do i = 1, n
         b(i) = 0.1 * i
      end do
      do i = 1, n
         t = b(i) * 2.0
         c(i) = t
      end do
      write (6, *) c(3)
      end
"""
        session = PedSession(src)
        session.select_loop(0)
        reference = run(src)
        advice = session.diagnose("fuse")
        assert advice.ok, advice.describe()
        session.apply("fuse")
        assert run(session.sf) == reference


class TestInterchangeScalarHazard:
    def test_scalar_recurrence_blocks_interchange(self):
        src = """      program p
      integer n
      parameter (n = 6)
      real a(n, n), t
      common /r/ a
      t = 1.0
      do j = 1, n
         do i = 1, n
            a(i, j) = t
            t = t + a(i, j)
         end do
      end do
      write (6, *) a(2, 5)
      end
"""
        session = PedSession(src)
        session.select_loop(0)
        advice = session.diagnose("interchange")
        assert advice.applicable and not advice.safe
        assert "scalar recurrence" in advice.reasons[0]

    def test_killed_scalar_allows_interchange(self):
        src = """      program p
      integer n
      parameter (n = 6)
      real a(n, n), t
      common /r/ a
      do j = 1, n
         do i = 1, n
            t = 0.5 * i + j
            a(i, j) = t
         end do
      end do
      write (6, *) a(2, 5)
      end
"""
        session = PedSession(src)
        session.select_loop(0)
        reference = run(src)
        advice = session.diagnose("interchange")
        assert advice.ok, advice.describe()
        session.apply("interchange")
        assert run(session.sf) == reference

    def test_reduction_allows_interchange(self):
        src = """      program p
      integer n
      parameter (n = 6)
      real a(n, n), s
      common /r/ a, s
      s = 0.0
      do j = 1, n
         do i = 1, n
            s = s + 1.0
         end do
      end do
      write (6, *) s
      end
"""
        session = PedSession(src)
        session.select_loop(0)
        reference = run(src)
        advice = session.diagnose("interchange")
        assert advice.ok, advice.describe()
        session.apply("interchange")
        assert run(session.sf) == reference
