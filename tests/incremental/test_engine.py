"""Engine cache correctness and incrementality.

The engine's contract: after *any* sequence of edits and assertion
changes, its results equal a from-scratch ``analyze_program`` (modulo
meaningless dependence-edge ids — compared via fingerprints), while
touching only the units an edit actually dirtied.
"""

import re

import pytest

from repro.assertions.engine import AssertionDB
from repro.fortran.symbols import parse_and_bind
from repro.incremental import AnalysisEngine, program_fingerprint
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


def _scratch(source, assertions=None):
    oracles = {}
    for unit, texts in (assertions or {}).items():
        db = AssertionDB()
        for text in texts:
            db.add(text)
        oracles[unit] = db
    return analyze_program(
        parse_and_bind(source), FeatureSet(), oracles_by_unit=oracles
    )


def _assert_parity(engine, source, assertions=None):
    _, pa = engine.analyze(source, assertions=assertions)
    ref = _scratch(source, assertions)
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
    engine = AnalysisEngine()
    _assert_parity(engine, source)
    for step_source in _edit_steps(source):
        _assert_parity(engine, step_source)
    # Assertions enter and leave without disturbing parity.
    first_unit = parse_and_bind(source).units[0].name
    _assert_parity(engine, source, assertions={first_unit: ["n >= 1"]})
    _assert_parity(engine, source)


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


def test_unit_set_change_flushes_cleanly():
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
    parse_before = engine.stats.stage("parse").misses
    _, pa = engine.analyze(extended)
    # Adding a unit changes the {name: kind} map: one miss discovering
    # the new span, then a full flush reparses all four units cleanly.
    assert engine.stats.stage("parse").misses - parse_before == 5
    assert program_fingerprint(pa) == program_fingerprint(_scratch(extended))
    # And shrinking back works too.
    _assert_parity(engine, THREE_UNITS)


def test_parse_errors_propagate_and_leave_caches_usable():
    from repro.fortran.errors import FortranError

    engine = AnalysisEngine()
    engine.analyze(THREE_UNITS)
    broken = THREE_UNITS.replace("do i = 1, n\n         a(i) = a(i) * 2.0", "do i = 1 n\n         a(i) = a(i) * 2.0")
    with pytest.raises(FortranError):
        engine.analyze(broken)
    # Rollback path: the previous source is still served, mostly cached.
    _assert_parity(engine, THREE_UNITS)


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
