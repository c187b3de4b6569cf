"""Concurrent-writer disk-cache integrity.

Two *real* subprocesses analyze programs against the same
``--cache-dir`` at the same time, racing writes to the same span /
unit-summary keys and writing, folding and compacting memo segments.
The content-addressed store plus atomic renames must deliver: zero
corrupted records (every record validates on a full read-back), no
livelock (both writers finish within the timeout), no lost memo entry
(a third engine folds every entry either writer held), and a store a
third engine can warm-start from with fingerprints identical to a
from-scratch analysis.
"""

import pickle
import subprocess
import sys

from repro.incremental import AnalysisEngine
from repro.incremental.fingerprint import fingerprint_digest
from repro.service import build_engine
from repro.service.diskcache import FORMAT_VERSION, _MAGIC
from repro.service.persist import MEMO_KIND, MEMO_SEGMENTS
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

from ..serving import child_env

#: Subprocess body: analyze each named program (a suite program, or a
#: generated one of that many routines) against a shared cache dir, each
#: with a new engine that folds the memo segments on disk and writes its
#: own; then print the repr of every memo entry key those engines held.
WRITER = """
import sys
from repro.service import build_engine
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

cache_dir = sys.argv[1]
keys = set()
for spec in sys.argv[2:]:
    if spec in SUITE:
        source = SUITE[spec].source
    else:
        source = generate_program(n_routines=int(spec))
    engine = build_engine(cache_dir=cache_dir)
    engine.analyze(source)
    keys.update(map(repr, engine.shared_memo.entries))
for key in sorted(keys):
    print(key)
print("ok")
"""


def _spawn_writer(cache_dir, *programs):
    return subprocess.Popen(
        [sys.executable, "-c", WRITER, str(cache_dir), *map(str, programs)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )


def _held_keys(proc):
    """The memo keys a finished writer's engines held."""

    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    lines = out.splitlines()
    assert lines and lines[-1] == "ok"
    return set(lines[:-1])


def _assert_every_record_validates(cache_dir):
    records = list(cache_dir.rglob("*.pkl"))
    assert records, "the writers must have populated the store"
    for path in records:
        rec = pickle.loads(path.read_bytes())
        assert rec["magic"] == _MAGIC
        assert rec["format"] == FORMAT_VERSION


def test_two_subprocess_writers_no_corruption_no_livelock(tmp_path):
    cache_dir = tmp_path / "cache"
    # Same n_routines → byte-identical generated program, analyzed cold
    # then warm → both processes race the *same* span and usum keys.
    a = _spawn_writer(cache_dir, 12, 12)
    b = _spawn_writer(cache_dir, 12, 12)
    held = _held_keys(a) | _held_keys(b)
    assert held

    # Every record in the store unpickles and validates: zero corrupted
    # records after the race.
    _assert_every_record_validates(cache_dir)

    # A third engine warm-starts off the raced store with fingerprints
    # identical to a from-scratch analysis, and folds every memo entry
    # either writer held.
    source = generate_program(n_routines=12)
    third = build_engine(cache_dir=cache_dir)
    _, pa = third.analyze(source)
    assert third.stats.counter("disk.error") == 0
    assert third.stats.counter("disk.warm_start") >= 1
    assert held <= set(map(repr, third.shared_memo.entries))
    _, pa_scratch = AnalysisEngine().analyze(source)
    assert fingerprint_digest(pa) == fingerprint_digest(pa_scratch)


def test_overlapping_programs_share_memo_across_processes(tmp_path):
    """No lost update: two writers analyze different programs, each with
    a new engine per program, so between them they write more segments
    than a listing may hold and compact while the other writes.  A third
    engine folds the union of what both exported."""

    cache_dir = tmp_path / "cache"
    suite = sorted(SUITE)
    a = _spawn_writer(cache_dir, *suite[::2], 10)
    b = _spawn_writer(cache_dir, *suite[1::2], 14)
    union = _held_keys(a) | _held_keys(b)

    _assert_every_record_validates(cache_dir)
    engine = build_engine(cache_dir=cache_dir)
    engine.analyze(generate_program(n_routines=10))
    assert union <= set(map(repr, engine.shared_memo.entries))
    assert engine.stats.counter("memo.delta_absorbed") >= len(union)
    assert engine.stats.counter("disk.error") == 0
    assert len(engine.store.cache.keys(MEMO_KIND)) <= MEMO_SEGMENTS
