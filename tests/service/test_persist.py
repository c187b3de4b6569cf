"""Warm-start persistence: reopened programs hit the disk cache.

Four contracts under test: a warm reopen is fingerprint-identical to a
cold analysis, with the same summaries, and runs as a pure cache walk,
whichever engine wrote the unit records its manifest names; per-span
records warm up *partially* overlapping programs, whatever units the
rest of the program holds; an edit writes only what it changed; and
corrupting the store never breaks an analysis — it just makes it cold
again.
"""

import io
import logging
import pickle

import pytest

from repro.incremental import AnalysisEngine, program_fingerprint
from repro.service import DiskCache, PedServer, build_engine
from repro.service.persist import (
    PROG_KIND,
    SPAN_KIND,
    UNIT_KIND,
    USUM_KIND,
)
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

SOURCE = SUITE["onedim"].source
STAGES = ("parse", "modref", "kill", "sections", "ipconst", "dependence")


def _stencil_edit(source):
    """Change one stencil constant of ``upd0``: its summaries stay put,
    so no other unit's analysis moves."""

    edited = source.replace("0.01 * (x(i+1)", "0.09 * (x(i+1)", 1)
    assert edited != source
    return edited


def _engine(tmp_path):
    return build_engine(cache_dir=tmp_path / "cache")


def _assert_summaries_match_cold(pa, source):
    """Every phase's summary of every unit equals a cold analysis's."""

    ref = AnalysisEngine().analyze(source)[1]
    for phase in ("modref", "kills", "sections", "ip_constants"):
        warm, cold = getattr(pa, phase), getattr(ref, phase)
        assert warm.keys() == cold.keys(), phase
        for name in cold:
            assert warm[name] == cold[name], (phase, name)


def _spy_puts(monkeypatch):
    """``(kind, payload)`` of every record written from now on."""

    written = []
    put = DiskCache.put

    def spy(self, kind, key, payload):
        written.append((kind, payload))
        return put(self, kind, key, payload)

    monkeypatch.setattr(DiskCache, "put", spy)
    return written


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


def test_span_records_serve_any_unit_set(tmp_path):
    """Binding reads one unit, so ``main``'s span record serves a
    program with or without ``function f``, whichever it was written
    under.  ``f`` is declared a scalar ``real`` in ``main``, so ``f(i)``
    is a function reference either way."""

    main = (
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
    # Every span of ``read`` misses the new engine's memory; main's is
    # served from disk, so f's span, where ``read`` has one, is the only
    # one parsed.
    for name, written, read, misses in (
        ("with-f", main + func, main, 1),
        ("without-f", main, main + func, 2),
    ):
        cache = tmp_path / name
        build_engine(cache_dir=cache).analyze(written)
        warm = build_engine(cache_dir=cache)
        _, pa = warm.analyze(read)
        assert warm.stats.counter("disk.warm_start") == 0
        assert warm.stats.counter("disk.span_warm") == 1
        assert warm.stats.stage("parse").misses == misses
        ref = AnalysisEngine().analyze(read)[1]
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


def test_one_routine_edit_writes_one_unit_record(tmp_path, monkeypatch):
    """A durable edit writes what it changed: the edited span, one unit
    record (the one refreshed unit with its summaries), one summary
    record (the one recomputed unit) and a manifest that holds no
    summaries, not the whole program's analysis.  Every other unit
    stays in the record it was first written to — ``upd0``'s caller
    too, whose summaries did not move — and the edited program reopens
    warm from them, with a cold analysis's summaries."""

    source = generate_program(n_routines=30)
    edited = _stencil_edit(source)
    engine = _engine(tmp_path)
    (caller,) = engine.analyze(source)[1].callgraph.callers["upd0"]
    caller_record = engine._deps[caller].record
    written = _spy_puts(monkeypatch)
    before = engine.stats.counter("disk.write_bytes")
    engine.analyze(edited)
    assert engine.refreshed == {"upd0"}
    kinds = sorted(kind for kind, _ in written)
    assert kinds == sorted([PROG_KIND, SPAN_KIND, UNIT_KIND, USUM_KIND])
    payloads = dict(written)
    assert set(payloads[UNIT_KIND]["deps"]) == {"upd0"}
    assert set(payloads[UNIT_KIND]["summaries"]) == {"upd0"}
    assert "summaries" not in payloads[PROG_KIND]
    assert engine.stats.counter("disk.write_bytes") - before < 20 * 1024
    assert engine._deps[caller].record == caller_record

    warm = _engine(tmp_path)
    _, pa = warm.analyze(edited)
    assert warm.stats.counter("disk.warm_start") == 1
    for stage in STAGES:
        assert warm.stats.stage(stage).misses == 0, stage
    ref = AnalysisEngine().analyze(edited)[1]
    assert program_fingerprint(pa) == program_fingerprint(ref)
    _assert_summaries_match_cold(pa, edited)


def test_leaf_edit_leaves_ancestor_summaries_to_a_later_miss(
    tmp_path, monkeypatch
):
    """A leaf edit writes a summary record for the leaf alone, although
    its ancestors' content keys moved.  Without the edited program's
    manifest, a fresh engine misses on exactly those ancestors,
    recomputes and writes them, and matches a cold analysis."""

    source = generate_program(n_routines=30)
    edited = _stencil_edit(source)
    a = _engine(tmp_path)
    a.analyze(source)
    a.analyze(edited)
    a.store.cache._path(
        PROG_KIND, a.store.program_key(a.features, edited, {})
    ).unlink()

    written = _spy_puts(monkeypatch)
    b = _engine(tmp_path)
    _, pa = b.analyze(edited)
    assert b.stats.counter("disk.warm_start") == 0
    # upd0's caller and the main program above it.
    assert b.stats.counter("disk.usum_miss") == 2
    assert b.stats.counter("disk.usum_hit") == 30
    assert sum(kind == USUM_KIND for kind, _ in written) == 2
    ref = AnalysisEngine().analyze(edited)[1]
    assert program_fingerprint(pa) == program_fingerprint(ref)
    _assert_summaries_match_cold(pa, edited)


def test_restore_rewrites_no_records(tmp_path):
    """Replaying a journal over the store that recorded it finds every
    record on disk already and writes none."""

    source = generate_program(n_routines=6)
    cache = tmp_path / "cache"
    first = PedServer(max_workers=2, cache_dir=cache)
    try:
        first.execute({"op": "open", "session": "s", "source": source})
        for old, new in (("0.01", "0.09"), ("0.02", "0.08")):
            line = next(
                i
                for i, text in enumerate(source.splitlines(), 1)
                if f"{old} * (x(i+1)" in text
            )
            text = source.splitlines()[line - 1].replace(old, new)
            reply = first.execute(
                {
                    "op": "edit",
                    "session": "s",
                    "start": line,
                    "end": line,
                    "text": text,
                }
            )
            assert reply["ok"], reply
        live = first.execute({"op": "fingerprint", "session": "s"})
    finally:
        first.close()
    fresh = PedServer(max_workers=2, cache_dir=cache)
    try:
        restored = fresh.execute({"op": "session.restore", "session": "s"})
    finally:
        fresh.close()
    assert restored["result"]["fingerprint"] == live["result"]["fingerprint"]
    assert fresh.stats.counter("disk.hit") > 0
    assert fresh.stats.counter("disk.write") == 0


def test_manifest_over_another_engines_records(tmp_path):
    """A manifest written in one engine's revision space warm-starts
    from unit records another engine wrote under different revisions."""

    source = generate_program(n_routines=6)
    edited = _stencil_edit(source)
    a = _engine(tmp_path)
    a.analyze(source)
    a.analyze(edited)
    store = a.store
    key = store.program_key(a.features, edited, {})
    store.cache._path(PROG_KIND, key).unlink()
    unit_dir = tmp_path / "cache" / UNIT_KIND
    records = sorted(unit_dir.rglob("*.pkl"))

    b = _engine(tmp_path)
    b.analyze(edited)
    assert b.stats.counter("disk.warm_start") == 0
    # b's manifest names the record a wrote for the edited unit, whose
    # revision differs between the two engines.
    record = b._deps["upd0"].record
    assert store.cache._path(UNIT_KIND, record) in records
    assert a._last.revs["upd0"] != b._last.revs["upd0"]

    c = _engine(tmp_path)
    _, pa = c.analyze(edited)
    assert c.stats.counter("disk.warm_start") == 1
    for stage in STAGES:
        assert c.stats.stage(stage).misses == 0, stage
    ref = AnalysisEngine().analyze(edited)[1]
    assert program_fingerprint(pa) == program_fingerprint(ref)
    _assert_summaries_match_cold(pa, edited)


def _garbage(path, store, key):
    path.write_bytes(b"garbage")


def _truncated(path, store, key):
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _misfiled(path, store, key):
    other = next(
        p for p in path.parent.parent.rglob("*.pkl") if p != path
    )
    path.write_bytes(other.read_bytes())


def _evicted(path, store, key):
    path.unlink()


def _other_span(path, store, key):
    payload = store.load_unit_record(key)
    payload["digest"] = "0" * 40
    assert store.cache.put(UNIT_KIND, key, payload)


@pytest.mark.parametrize(
    "corrupt",
    [_garbage, _truncated, _misfiled, _evicted, _other_span],
    ids=lambda f: f.__name__.strip("_"),
)
def test_bad_unit_record_opens_cold(tmp_path, caplog, corrupt):
    source = generate_program(n_routines=6)
    cold = _engine(tmp_path)
    cold.analyze(source)
    key = cold._deps["driver"].record
    corrupt(cold.store.cache._path(UNIT_KIND, key), cold.store, key)

    warm = _engine(tmp_path)
    with caplog.at_level(logging.WARNING):
        _, pa = warm.analyze(source)
    assert warm.stats.counter("disk.warm_start") == 0
    assert any(
        "ignoring program manifest" in r.getMessage() for r in caplog.records
    )
    ref = AnalysisEngine().analyze(source)[1]
    assert program_fingerprint(pa) == program_fingerprint(ref)


_RECURSIVE = (
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
)


def test_recursive_units_records_stay_with_their_program(tmp_path):
    """``a`` and ``b`` call each other, so ``a``'s analysis depends on
    ``b``'s body although ``a``'s own span is the same in both programs:
    a record written for one program must not serve the other."""

    first = _RECURSIVE + "      x(1) = x(1) + 1.0\n      end\n"
    second = _RECURSIVE + "      x(i) = x(i) + 1.0\n      end\n"
    ref = AnalysisEngine().analyze(second)[1]
    assert program_fingerprint(ref) != program_fingerprint(
        AnalysisEngine().analyze(first)[1]
    )
    _engine(tmp_path).analyze(first)
    _engine(tmp_path).analyze(second)
    warm = _engine(tmp_path)
    _, pa = warm.analyze(second)
    assert warm.stats.counter("disk.warm_start") == 1
    assert program_fingerprint(pa) == program_fingerprint(ref)


class _ModuleSpy(pickle.Unpickler):
    """Unpickles a blob and records every module it names."""

    def __init__(self, blob):
        super().__init__(io.BytesIO(blob))
        self.modules = set()

    def find_class(self, module, name):
        self.modules.add(module)
        return super().find_class(module, name)


@pytest.mark.parametrize("name", [*SUITE, "generated30"])
def test_records_hold_integral_forms_as_int(tmp_path, name):
    """Section summaries pickle affine forms inside ``usum:`` and
    ``unit:`` records.  Their integral coefficients are ``int``, so no
    record refers to ``fractions``; records written while forms held
    ``Fraction`` are why ``FORMAT_VERSION`` moved to 11."""

    if name == "generated30":
        source = generate_program(n_routines=30)
    else:
        source = SUITE[name].source
    engine = _engine(tmp_path)
    engine.analyze(source)
    cache = engine.store.cache
    modules = set()
    for kind in (USUM_KIND, UNIT_KIND):
        keys = cache.keys(kind)
        assert keys, kind
        for key in keys:
            spy = _ModuleSpy(cache._path(kind, key).read_bytes())
            spy.load()
            assert "fractions" not in spy.modules, (kind, key)
            modules |= spy.modules
    assert "repro.analysis.symbolic" in modules
