"""Engine cache correctness and incrementality.

The engine's contract: after *any* sequence of edits and assertion
changes, its results equal a from-scratch ``analyze_program`` (modulo
meaningless dependence-edge ids — compared via fingerprints), while
touching only the units an edit actually dirtied.
"""

import json
import re

import pytest

from repro.assertions.engine import AssertionDB
from repro.fortran.errors import FortranError
from repro.fortran.symbols import parse_and_bind
from repro.incremental import (
    AnalysisEngine,
    program_fingerprint,
    split_units,
)
from repro.interproc.program import FeatureSet, analyze_program
from repro.workloads import SUITE

THREE_UNITS = (
    "      program main\n"
    "      real x(100)\n"
    "      call init(x, 100)\n"
    "      call scale(x, 100)\n"
    "      end\n"
    "      subroutine init(a, n)\n"
    "      real a(100)\n"
    "      do i = 1, n\n"
    "         a(i) = 0.0\n"
    "      enddo\n"
    "      end\n"
    "      subroutine scale(a, n)\n"
    "      real a(100)\n"
    "      do i = 1, n\n"
    "         a(i) = a(i) * 2.0\n"
    "      enddo\n"
    "      end\n"
)


def _scratch(source, assertions=None, features=None):
    oracles = {}
    for unit, texts in (assertions or {}).items():
        db = AssertionDB()
        for text in texts:
            db.add(text)
        oracles[unit] = db
    return analyze_program(
        parse_and_bind(source),
        features or FeatureSet(),
        oracles_by_unit=oracles,
    )


def _assert_parity(engine, source, assertions=None):
    _, pa = engine.analyze(source, assertions=assertions)
    ref = _scratch(source, assertions, engine.features)
    assert program_fingerprint(pa) == program_fingerprint(ref)
    return pa


def _edit_steps(source):
    """A deterministic edit script for one program: tweak a numeric
    assignment, insert a comment mid-file (shifting every later unit),
    then revert — exercising reparse, renumber and cache-revisit paths."""

    lines = source.splitlines()
    steps = []
    for i, text in enumerate(lines):
        if (
            re.search(r"= .*[0-9]", text)
            and "do " not in text
            and "parameter" not in text
        ):
            tweaked = list(lines)
            tweaked[i] = text + " + 0.0"
            steps.append("\n".join(tweaked) + "\n")
            break
    mid = len(lines) // 2
    commented = list(lines)
    commented.insert(mid, "c incremental-engine probe")
    steps.append("\n".join(commented) + "\n")
    steps.append(source if source.endswith("\n") else source + "\n")
    return steps


@pytest.mark.parametrize("name", sorted(SUITE))
def test_engine_matches_scratch_across_edit_sequences(name):
    source = SUITE[name].source
    first_unit = parse_and_bind(source).units[0].name
    for features in (FeatureSet(), FeatureSet.minimal()):
        engine = AnalysisEngine(features=features)
        _assert_parity(engine, source)
        for step_source in _edit_steps(source):
            _assert_parity(engine, step_source)
        # Assertions enter and leave without disturbing parity.
        _assert_parity(engine, source, assertions={first_unit: ["n >= 1"]})
        _assert_parity(engine, source)
    # The last engine ran under minimal features: no summary stage ran.
    for stage in ("modref", "kill", "sections", "ipconst"):
        stat = engine.stats.stage(stage)
        assert (stat.runs, stat.hits, stat.misses) == (0, 0, 0), stage


def test_graph_event_reports_what_moved():
    """Each walk closes with one ``graph`` progress event, streamed to
    clients as is: ``entry`` says where the inputs moved since the last
    completed walk, over the stages the features enable (eight, or
    four under minimal features)."""

    seen = []

    def listen(phase, detail):
        if phase == "graph":
            seen.append(json.dumps(detail))

    edited = THREE_UNITS.replace("* 2.0", "* 3.0")
    asserts = {"scale": ["n >= 1"]}
    engine = AnalysisEngine()
    engine.progress = listen
    engine.analyze(THREE_UNITS)  # cold
    engine.analyze(edited)  # edit
    engine.analyze(edited, assertions=asserts)  # assertions alone
    with pytest.raises(FortranError):
        engine.analyze("      x = ((\n")  # a failed walk moves nothing
    engine.analyze(edited, assertions=asserts)  # identical rerun
    minimal = AnalysisEngine(features=FeatureSet.minimal())
    minimal.progress = listen
    minimal.analyze(THREE_UNITS)
    minimal.analyze(THREE_UNITS, assertions=asserts)
    assert seen == [
        '{"entry": "split", "hits": 0, "recomputed": 8}',
        '{"entry": "split", "hits": 0, "recomputed": 8}',
        '{"entry": "dependence", "hits": 7, "recomputed": 1}',
        '{"entry": null, "hits": 8, "recomputed": 0}',
        '{"entry": "split", "hits": 0, "recomputed": 4}',
        '{"entry": "dependence", "hits": 3, "recomputed": 1}',
    ]


def test_second_analysis_is_all_hits():
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    misses = {
        stage: engine.stats.stage(stage).misses
        for stage in ("parse", "modref", "kill", "sections", "ipconst", "dependence")
    }
    engine.analyze(THREE_UNITS)
    for stage, before in misses.items():
        assert engine.stats.stage(stage).misses == before, stage
    assert engine.stats.stage("parse").hits == 3
    assert engine.stats.stage("dependence").hits == 3


_STAGES = ("parse", "modref", "kill", "sections", "ipconst", "dependence")


def _misses_after_edit(edited):
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    stats = engine.stats
    before = {s: stats.stage(s).misses for s in _STAGES}
    _, pa = engine.analyze(edited)
    assert program_fingerprint(pa) == program_fingerprint(_scratch(edited))
    return {s: stats.stage(s).misses - before[s] for s in _STAGES}


def test_single_unit_edit_dirties_only_its_region():
    misses = _misses_after_edit(THREE_UNITS.replace("* 2.0", "* 3.0"))
    assert misses["parse"] == 1
    # Early cutoff: scale's summaries recompute to values equal to the
    # cached ones, so main (its caller) keeps its own in every phase.
    assert misses["modref"] == 1
    assert misses["kill"] == 1
    assert misses["sections"] == 1
    # Top-down constants close over callees: only scale is dirty.
    assert misses["ipconst"] == 1
    # No revision bump reaches main either: only the edited unit's
    # dependence stage reruns.
    assert misses["dependence"] == 1


def test_callee_summary_change_refolds_its_caller():
    """The converse: an edit that changes the callee's section summary
    must reach its caller, while the phases whose value stayed put
    still stop at the callee."""

    misses = _misses_after_edit(
        THREE_UNITS.replace(
            "do i = 1, n\n         a(i) = a(i) * 2.0",
            "do i = 2, n\n         a(i) = a(i) * 2.0",
        )
    )
    assert misses["parse"] == 1
    assert misses["sections"] == 2  # scale, then main
    assert misses["modref"] == 1
    assert misses["kill"] == 1
    # scale's sections revision moved, so main's dependence key did too.
    assert misses["dependence"] == 2


def test_assertion_change_reanalyzes_without_reparse():
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    parse_before = engine.stats.stage("parse").misses
    dep_before = engine.stats.stage("dependence").misses
    _assert_parity(engine, THREE_UNITS, assertions={"scale": ["n >= 1"]})
    assert engine.stats.stage("parse").misses == parse_before
    assert engine.stats.stage("dependence").misses == dep_before + 1
    # Dropping the assertion recomputes scale once more (the cache keeps
    # one entry per unit, keyed by the *current* assertion set) — still
    # with no reparse, and the other units stay cached.
    dep_before = engine.stats.stage("dependence").misses
    _assert_parity(engine, THREE_UNITS)
    assert engine.stats.stage("parse").misses == parse_before
    assert engine.stats.stage("dependence").misses == dep_before + 1


def test_adding_a_unit_reparses_only_its_span():
    """Binding reads one unit, so a unit-set change keeps every other
    span's parse: adding a routine parses its span alone, removing it
    parses nothing, and both directions match a from-scratch analysis."""

    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    extended = THREE_UNITS + (
        "      subroutine reset(a, n)\n"
        "      real a(100)\n"
        "      do i = 1, n\n"
        "         a(i) = 0.0\n"
        "      enddo\n"
        "      end\n"
    )
    parse = engine.stats.stage("parse")
    before = parse.misses
    _assert_parity(engine, extended)
    assert parse.misses - before == 1
    before = parse.misses
    _assert_parity(engine, THREE_UNITS)
    assert parse.misses == before


def test_parse_errors_propagate_and_leave_caches_usable():
    from repro.fortran.errors import FortranError

    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    broken = THREE_UNITS.replace("do i = 1, n\n         a(i) = a(i) * 2.0", "do i = 1 n\n         a(i) = a(i) * 2.0")
    with pytest.raises(FortranError):
        engine.analyze(broken)
    # Rollback path: the previous source is still served, mostly cached.
    _assert_parity(engine, THREE_UNITS)


def test_a_failed_walk_moves_no_other_parses_analysis():
    """The walk of ``broken`` relocates the parse of ``scale``'s old
    text and then fails on ``init``.  The analysis the engine holds for
    ``scale`` belongs to another parse (its current text), so it stays
    where it was, and the rollback walk hands it out unchanged."""

    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    current = THREE_UNITS.replace("* 2.0", "* 3.0")
    _assert_parity(engine, current)
    broken = ("c moved\n" + THREE_UNITS).replace("a(i) = 0.0", "a(i) = = 0.0")
    with pytest.raises(FortranError):
        engine.analyze(broken)
    _assert_parity(engine, current)
    _assert_parity(engine, "c moved\n" + THREE_UNITS)


def test_cached_graphs_are_restored_pristine_across_sessions():
    from repro.editor import PedSession

    engine = AnalysisEngine(features=FeatureSet(scalar_kill=False))
    first = PedSession(THREE_UNITS, engine=engine)
    first.select_unit("scale")
    # Find any pending dependence and accept it.
    pending = [d for d in first.unit_analysis.graph.edges if d.marking == "pending"]
    if pending:
        first.mark_dependence(pending[0].id, "accepted")
    # A second session sharing the engine must not see the first
    # session's markings bleed through the cache.
    second = PedSession(THREE_UNITS, engine=engine)
    ua = second.analysis.unit("scale")
    assert all(d.marking != "accepted" for d in ua.graph.edges)


def test_stats_snapshot_and_render():
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    snap = engine.stats.snapshot()
    assert snap["analyses"] == 1
    assert snap["stages"]["parse"]["misses"] == 3
    text = engine.stats.render()
    assert "dependence" in text and "hit%" in text
    engine.stats.reset()
    assert engine.stats.analyses == 0


# -- what a one-line edit costs --------------------------------------------
#
# A stencil edit inside one ``upd<r>`` of the 60-routine generated program
# (the edit_loop benchmark's session) must cost work in that routine only:
# the split re-reads the routine and at most one neighbour on each side,
# no caller is constant-folded again, the summary schedule is kept, and no
# cached graph is restored (the session holds no marks).


def _generated_session():
    from repro.editor import PedSession
    from repro.workloads.generator import generate_program

    return PedSession(generate_program(n_routines=60))


def _line_of(source, text, after=None):
    """1-based line of the first line equal to ``text`` (after the line
    equal to ``after``, when given)."""

    lines = source.splitlines()
    start = lines.index(after) if after is not None else 0
    return lines.index(text, start) + 1


def _cold_fingerprint(source):
    _, pa = AnalysisEngine().analyze(source)
    return program_fingerprint(pa)


class _WorkCounts:
    """What the engine did since :meth:`reset`: physical lines each
    splitter logical-line pass read, ``propagate_constants`` calls as
    ``(stage, unit name)`` (the ``ipconst`` stage folds callers, the
    ``dependence`` stage the unit it analyzes), ``_scc_schedule`` calls,
    and units whose pristine graph was restored."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.lines_read, self.folds, self.restores = [], [], []
        self.schedules = 0


@pytest.fixture
def work_counts(monkeypatch):
    from repro.dependence import driver
    from repro.incremental import engine, splitter

    counts = _WorkCounts()
    real_logical_lines = splitter.logical_lines
    real_schedule = engine._scc_schedule
    real_restore = engine._restore_pristine

    def lines_read(text):
        counts.lines_read.append(len(text.splitlines()))
        return real_logical_lines(text)

    def schedule(cg):
        counts.schedules += 1
        return real_schedule(cg)

    def restore(entry):
        counts.restores.append(entry.ua.unit.name)
        return real_restore(entry)

    def fold(module, stage):
        real = module.propagate_constants

        def counting(unit, *args, **kwargs):
            counts.folds.append((stage, unit.name))
            return real(unit, *args, **kwargs)

        monkeypatch.setattr(module, "propagate_constants", counting)

    monkeypatch.setattr(splitter, "logical_lines", lines_read)
    monkeypatch.setattr(engine, "_scc_schedule", schedule)
    monkeypatch.setattr(engine, "_restore_pristine", restore)
    fold(engine, "ipconst")
    fold(driver, "dependence")
    return counts


def test_one_line_edit_costs_only_its_unit(work_counts):
    session = _generated_session()
    source = session.source
    spans = dict(
        zip([u.name for u in session.sf.units], split_units(source))
    )
    lines = source.splitlines()
    upd7 = spans["upd7"]
    line = next(
        n
        for n in range(upd7.start_line, upd7.end_line + 1)
        if lines[n - 1].lstrip().startswith("x(i) = x(i) +")
    )
    text = lines[line - 1]
    work_counts.reset()
    session.edit(line, line, text + " + 1.0")

    around = sum(
        spans[n].end_line - spans[n].start_line + 1
        for n in ("upd6", "upd7", "upd8")
    )
    assert 0 < sum(work_counts.lines_read) <= around
    assert {unit for _stage, unit in work_counts.folds} == {"upd7"}
    assert work_counts.schedules == 0
    assert work_counts.restores == []
    assert program_fingerprint(session.analysis) == _cold_fingerprint(
        session.source
    )


def test_caller_is_refolded_when_its_inherited_constants_move(work_counts):
    """``driver``'s text is unchanged, but the constant its caller passes
    is not: the fold key holds inherited constants."""

    session = _generated_session()
    line = _line_of(session.source, "         call driver(n)")
    work_counts.reset()
    session.edit(line, line, "         call driver(8)")
    assert ("ipconst", "driver") in work_counts.folds
    assert session.analysis.ip_constants["driver"] == {"m": 8}
    assert program_fingerprint(session.analysis) == _cold_fingerprint(
        session.source
    )


def test_caller_parameter_edit_moves_every_callee_constant():
    """With ``k = 3`` each ``upd<r>`` loop runs one iteration and turns
    parallel: every callee's dependence key moved with its constants,
    although no callee's text did."""

    session = _generated_session()
    line = _line_of(
        session.source,
        "      parameter (n = 16)",
        after="      subroutine driver(m)",
    )
    session.edit(line, line, "      parameter (n = 3)")
    analysis = session.analysis
    for r in range(60):
        assert analysis.ip_constants[f"upd{r}"] == {"k": 3}
        assert all(
            info.parallelizable
            for info in analysis.units[f"upd{r}"].loop_info.values()
        )
    assert program_fingerprint(analysis) == _cold_fingerprint(session.source)


#: ``mid`` passes its formal on to ``leaf``, whose loop is parallel only
#: while the offset it inherits is at least 10.
CHAIN = (
    "      program main\n"
    "      real a(100)\n"
    "      call mid(a, 10)\n"
    "      end\n"
    "      subroutine mid(y, k)\n"
    "      real y(100)\n"
    "      call leaf(y, k)\n"
    "      end\n"
    "      subroutine leaf(x, k)\n"
    "      real x(100)\n"
    "      do i = 1, 10\n"
    "         x(i + k) = x(i) + 1.0\n"
    "      enddo\n"
    "      end\n"
)


def test_constants_move_two_calls_down():
    engine = AnalysisEngine()
    _, pa = engine.analyze(CHAIN)
    assert pa.ip_constants["leaf"] == {"k": 10}
    assert all(i.parallelizable for i in pa.units["leaf"].loop_info.values())
    edited = CHAIN.replace("call mid(a, 10)", "call mid(a, 5)")
    _, pa = engine.analyze(edited)
    assert pa.ip_constants["leaf"] == {"k": 5}
    assert not any(
        i.parallelizable for i in pa.units["leaf"].loop_info.values()
    )
    assert program_fingerprint(pa) == _cold_fingerprint(edited)


def test_new_call_edge_recomputes_the_schedule(work_counts):
    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    edited = THREE_UNITS.replace(
        "         a(i) = a(i) * 2.0\n",
        "         a(i) = a(i) * 2.0\n      call init(a, n)\n",
    )
    work_counts.reset()
    _, pa = engine.analyze(edited)
    assert work_counts.schedules == 1
    assert program_fingerprint(pa) == _cold_fingerprint(edited)


#: ``work``'s loops raise each obstacle that names a line: I/O (beside
#: a pending loop-carried dependence on ``a``), a premature exit and a
#: branch out of the loop.
OBSTACLES = (
    "      program main\n"
    "      real x(10)\n"
    "      call work(x, 10, k)\n"
    "      end\n"
    "      subroutine work(a, n, m)\n"
    "      real a(10)\n"
    "      do i = 1, n\n"
    "         a(i) = a(m) + 1.0\n"
    "         write (6, *) a(i)\n"
    "      enddo\n"
    "      do i = 1, n\n"
    "         if (a(i) .lt. 0.0) return\n"
    "      enddo\n"
    "      do 20 i = 1, n\n"
    "         if (a(i) .gt. 1.0) goto 30\n"
    "         a(i) = 0.0\n"
    " 20   continue\n"
    " 30   continue\n"
    "      end\n"
)


def _obstacles(ua):
    return {sid: list(info.obstacles) for sid, info in ua.loop_info.items()}


def test_a_moved_unit_names_its_new_lines_in_obstacles():
    """Two comment lines above ``main`` move ``work`` down without
    reparsing it; its I/O, exit and branch obstacles name the moved
    lines, in the handed-out verdicts and in the pristine ones a
    session's marking is undone from, and moving it back restores the
    old lines."""

    engine = AnalysisEngine()
    _assert_parity(engine, OBSTACLES)
    parse = engine.stats.stage("parse")
    # Only main's new text is parsed; moving back finds its old parse.
    moved = "c two lines\nc above main\n" + OBSTACLES
    for source, misses in ((moved, 1), (OBSTACLES, 0)):
        before = parse.misses
        pa = _assert_parity(engine, source)
        assert parse.misses - before == misses
        fresh = _obstacles(_scratch(source).units["work"])
        assert _obstacles(pa.units["work"]) == fresh
        pristine = engine._deps["work"].verdicts
        assert {sid: obs for sid, (obs, _) in pristine.items()} == fresh
    texts = [o for obs in fresh.values() for o in obs]
    assert "I/O statement at line 9" in texts
    assert "premature exit at line 12" in texts
    assert "branch out of loop at line 15" in texts
    assert any(o.startswith("loop-carried") for o in texts)


def test_a_moved_unit_keeps_its_marking_and_verdicts():
    """A rejected pending dependence keeps ``work``'s first loop blocked
    by its I/O statement alone; after an edit above it moves the unit,
    the session's analysis equals a fresh session's with the same
    markings."""

    from repro.editor import PedSession

    session = PedSession(OBSTACLES)
    session.select_unit("work")
    session.select_loop(0)
    for dep in session.dependences():
        if dep.level and dep.marking == "pending":
            session.mark_dependence(dep.id, "rejected")
    assert session.selected_info.obstacles == ["I/O statement at line 9"]
    session.edit(1, 1, "c moved\n      program main")
    assert session.selected_info.obstacles == ["I/O statement at line 10"]
    fresh = PedSession(session.source)
    fresh.markings.restore(session.markings.snapshot())
    fresh.reanalyze()
    assert program_fingerprint(session.analysis) == program_fingerprint(
        fresh.analysis
    )


def test_a_repeated_unit_text_gets_its_own_parse():
    """Two spans with one text (the same routine twice, which the
    front end accepts) never share a cached parse: each occurrence
    keeps its own lines, before and after both move."""

    routine = (
        "      subroutine s(a)\n"
        "      real a(10)\n"
        "      do i = 1, 10\n"
        "         a(i) = 0.0\n"
        "      enddo\n"
        "      end\n"
    )
    main = "      program main\n      real x(10)\n      call s(x)\n      end\n"
    source = main + routine + routine
    engine = AnalysisEngine()
    for text in (source, "c moved\n" + source, source):
        sf, pa = engine.analyze(text)
        ref = parse_and_bind(text)
        assert sf.units[1] is not sf.units[2]
        assert [
            (u.line, u.end_line, [st.line for st in u.all_statements()])
            for u in sf.units
        ] == [
            (u.line, u.end_line, [st.line for st in u.all_statements()])
            for u in ref.units
        ]
        assert program_fingerprint(pa) == program_fingerprint(
            analyze_program(ref, FeatureSet())
        )
