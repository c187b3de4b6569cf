"""Every per-unit stage call passes ``repro.service.pool.run_task``.

The engine looks that name up on the module at call time for every span
parse, summary step and dependence analysis, and the benchmark's tracer
(``benchmarks/ped/trace.py``) wraps it to bill each call to the
``fortran``, ``interproc`` or ``dependence`` layer.  A stage call that
bypasses it is billed to ``incremental`` instead, so these counts pin
the seam: the cold and edit walks, a transformation's walk, its undo
and redo, a line insertion and a recursive SCC's fixpoint steps.  A
disk span record, reused in a program with another unit set, makes no
call at all.
"""

from collections import Counter

import pytest

from repro.editor import PedSession
from repro.incremental import AnalysisEngine
from repro.incremental import engine as engine_module
from repro.service import build_engine, pool
from repro.workloads.generator import generate_program

RECURSIVE = (
    "      program main\n"
    "      real x(10)\n"
    "      call a(x, 10)\n"
    "      end\n"
    "      subroutine a(x, n)\n"
    "      real x(n)\n"
    "      do i = 1, n\n"
    "         call b(x, i)\n"
    "      enddo\n"
    "      end\n"
    "      subroutine b(x, i)\n"
    "      real x(*)\n"
    "      if (i .gt. 100) call a(x, i)\n"
    "      x(i) = x(i) + 1.0\n"
    "      end\n"
)


@pytest.fixture
def calls(monkeypatch):
    """``run_task`` calls by kind, counted from now on."""

    counts = Counter()
    run_task = pool.run_task

    def spy(kind, payload):
        counts[kind] += 1
        return run_task(kind, payload)

    monkeypatch.setattr(pool, "run_task", spy)
    return counts


def _by_kind(counts):
    return counts["parse"], counts["summary"], counts["dep"]


def test_cold_walk_and_one_statement_edit(calls):
    source = generate_program(6)
    engine = AnalysisEngine()
    engine.analyze(source)
    assert _by_kind(calls) == (8, 24, 8)

    calls.clear()
    edited = source.replace("0.01 * (x(i+1)", "0.09 * (x(i+1)", 1)
    assert edited != source
    engine.analyze(edited)  # one statement of upd0
    assert _by_kind(calls) == (1, 3, 1)


def test_a_transformation_reanalyzes_what_it_rewrote(calls):
    """``reverse`` of ``driver``'s first loop rewrites ``driver`` alone
    and keeps its line count: one parse, its three summary steps and
    one dependence analysis, where reprinting the program cost 62, 186
    and 62.  ``parallelize`` adds a directive line, so the 60 routines
    below ``driver`` move: they keep their parses and analyses, and
    cost nothing either.  ``scale`` above it keeps its AST."""

    for name in ("reverse", "parallelize"):
        session = PedSession(generate_program(60))
        scale = session.sf.unit("scale")
        session.select_unit("driver")
        session.select_loop(0)
        calls.clear()
        session.apply(name)
        assert _by_kind(calls) == (1, 3, 1), name
        assert session.sf.unit("scale") is scale


def _steps(session, calls, actions):
    """``run_task`` counts of each action in turn."""

    counts = []
    for action in actions:
        calls.clear()
        action(session)
        counts.append(_by_kind(calls))
    return counts


def test_undo_and_redo_of_a_line_adding_apply_reanalyze_one_routine(calls):
    """The routines below ``driver`` move down with the apply's
    directive line and back up with its undo: each walk reanalyzes
    ``driver`` alone.  Undo reparses ``driver``'s old text (the apply
    forgot that parse); redo finds the rewritten text's parse."""

    session = PedSession(generate_program(60))
    session.select_unit("driver")
    session.select_loop(0)
    steps = _steps(
        session,
        calls,
        (
            lambda s: s.apply("parallelize"),
            lambda s: s.undo(),
            lambda s: s.redo(),
        ),
    )
    assert steps == [(1, 3, 1), (1, 3, 1), (0, 3, 1)]


def test_a_line_insertion_costs_what_a_replacement_does(calls):
    """Inserting a line in ``upd0`` moves the 59 routines below it;
    deleting it again finds ``upd0``'s old parse.  Each walk reanalyzes
    ``upd0`` alone, as a one-line replacement does."""

    session = PedSession(generate_program(60))
    line = session.sf.unit("upd0").line + 1  # ``integer k``
    steps = _steps(
        session,
        calls,
        (
            lambda s: s.edit(line, line, "      integer k\n      real t"),
            lambda s: s.edit(line, line + 1, "      integer k"),
            lambda s: s.edit(line, line, "      integer k, m"),
        ),
    )
    assert steps == [(1, 3, 1), (0, 3, 1), (1, 3, 1)]


def test_recursive_scc_steps_pass_the_seam(calls, monkeypatch):
    """``a`` and ``b`` call each other: every fixpoint step of their
    SCC, not only ``main``'s single steps, is a ``summary`` task."""

    steps = Counter()
    for name in ("local_summary", "unit_kills", "unit_sections"):
        step = getattr(engine_module, name)

        def counted(*args, _step=step):
            steps["all"] += 1
            return _step(*args)

        monkeypatch.setattr(engine_module, name, counted)
    AnalysisEngine().analyze(RECURSIVE)
    assert calls["summary"] == steps["all"] == 31


def test_span_record_is_reused_without_a_parse_call(tmp_path, calls):
    base = (
        "      program main\n"
        "      real x(10), f\n"
        "      do i = 1, 10\n"
        "         x(i) = f(i)\n"
        "      enddo\n"
        "      end\n"
    )
    func = "      function f(i)\n      f = i * 2.0\n      end\n"
    build_engine(cache_dir=tmp_path / "cache").analyze(base + func)

    calls.clear()
    warm = build_engine(cache_dir=tmp_path / "cache")
    warm.analyze(base)  # f is gone; main's record still binds f(i)
    assert warm.stats.counter("disk.span_warm") == 1
    assert calls["parse"] == 0
