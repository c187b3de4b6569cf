"""Warm-start persistence: reopened programs hit the disk cache.

Three contracts under test: a warm reopen is fingerprint-identical to a
cold analysis and runs as a pure cache walk; per-span records warm up
*partially* overlapping programs but are rejected (with a warning) when
the unit-kind map changed; and corrupting the store never breaks an
analysis — it just makes it cold again.
"""

import logging

import pytest

from repro.incremental import AnalysisEngine, program_fingerprint
from repro.service import build_engine
from repro.workloads import SUITE

SOURCE = SUITE["onedim"].source


def _engine(tmp_path):
    return build_engine(cache_dir=tmp_path / "cache")


def test_warm_reopen_is_identical_and_all_hits(tmp_path):
    ref = AnalysisEngine().analyze(SOURCE)[1]
    cold = _engine(tmp_path)
    _, pa_cold = cold.analyze(SOURCE)
    assert program_fingerprint(pa_cold) == program_fingerprint(ref)

    warm = _engine(tmp_path)
    _, pa_warm = warm.analyze(SOURCE)
    assert program_fingerprint(pa_warm) == program_fingerprint(ref)
    assert warm.stats.counter("disk.warm_start") == 1
    for stage in ("parse", "modref", "kill", "sections", "dependence"):
        assert warm.stats.stage(stage).misses == 0, stage
        assert warm.stats.stage(stage).hits > 0, stage


def test_warm_session_stays_interactive(tmp_path):
    """A warm-started engine supports the whole session lifecycle."""

    from repro.editor.session import PedSession

    cold = PedSession(SOURCE, engine=_engine(tmp_path))
    cold_fp = program_fingerprint(cold.analysis)

    warm = PedSession(SOURCE, engine=_engine(tmp_path))
    assert warm.engine.stats.counter("disk.warm_start") == 1
    assert program_fingerprint(warm.analysis) == cold_fp
    warm.edit(2, 2, "      integer i, n")
    warm.undo()
    assert program_fingerprint(warm.analysis) == cold_fp


def test_span_records_warm_partial_overlap(tmp_path):
    """An edited program reuses the untouched spans from disk."""

    cold = _engine(tmp_path)
    cold.analyze(SOURCE)

    edited = SOURCE.replace("1.0 + 0.01 * i", "1.0 + 0.02 * i")
    assert edited != SOURCE
    warm = _engine(tmp_path)
    _, pa = warm.analyze(edited)
    # Not an exact program match — no whole-program warm start ...
    assert warm.stats.counter("disk.warm_start") == 0
    # ... but every unedited span loads from its disk record: the only
    # parse-stage *work* is the edited span, and even that counts as a
    # miss while the untouched spans were disk hits.
    assert warm.stats.counter("disk.hit") > 0
    ref = AnalysisEngine().analyze(edited)[1]
    assert program_fingerprint(pa) == program_fingerprint(ref)


def test_span_records_rejected_when_unit_kinds_change(tmp_path, caplog):
    """Name resolution depends on the program's unit-kind map, so a span
    record from a program with a different map must be discarded."""

    base = (
        "      program main\n"
        "      real x(10), f\n"
        "      do i = 1, 10\n"
        "         x(i) = f(i)\n"
        "      enddo\n"
        "      end\n"
    )
    func = (
        "      function f(i)\n"
        "      f = i * 2.0\n"
        "      end\n"
    )
    cold = _engine(tmp_path)
    cold.analyze(base + func)  # f is a program unit: f(i) is a call

    warm = _engine(tmp_path)
    with caplog.at_level(logging.WARNING):
        _, pa = warm.analyze(base)  # f is gone: f(i) is an array ref
    assert warm.stats.counter("disk.span_rejected") > 0
    assert any(
        "different unit-kind map" in r.message for r in caplog.records
    )
    ref = AnalysisEngine().analyze(base)[1]
    assert program_fingerprint(pa) == program_fingerprint(ref)


def test_corrupt_store_degrades_to_cold(tmp_path, caplog):
    cold = _engine(tmp_path)
    cold.analyze(SOURCE)
    # Trash every record on disk.
    for path in (tmp_path / "cache").rglob("*.pkl"):
        path.write_bytes(b"garbage")
    warm = _engine(tmp_path)
    with caplog.at_level(logging.WARNING):
        _, pa = warm.analyze(SOURCE)
    assert warm.stats.counter("disk.warm_start") == 0
    assert warm.stats.counter("disk.error") > 0
    ref = AnalysisEngine().analyze(SOURCE)[1]
    assert program_fingerprint(pa) == program_fingerprint(ref)


def test_assertions_enter_the_program_key(tmp_path):
    """Same source, different assertions: no false warm start."""

    cold = _engine(tmp_path)
    cold.analyze(SOURCE)
    warm = _engine(tmp_path)
    _, pa = warm.analyze(SOURCE, assertions={"deposit": ["n >= 1"]})
    assert warm.stats.counter("disk.warm_start") == 0
    ref = AnalysisEngine().analyze(
        SOURCE, assertions={"deposit": ["n >= 1"]}
    )[1]
    assert program_fingerprint(pa) == program_fingerprint(ref)


def test_features_enter_the_program_key(tmp_path):
    from repro.interproc.program import FeatureSet

    cold = _engine(tmp_path)
    cold.analyze(SOURCE)
    warm = build_engine(
        features=FeatureSet.minimal(), cache_dir=tmp_path / "cache"
    )
    _, pa = warm.analyze(SOURCE)
    assert warm.stats.counter("disk.warm_start") == 0
    ref = AnalysisEngine(features=FeatureSet.minimal()).analyze(SOURCE)[1]
    assert program_fingerprint(pa) == program_fingerprint(ref)
