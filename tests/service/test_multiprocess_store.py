"""Concurrent-writer disk-cache integrity (satellite 3).

Two *real* subprocesses analyze overlapping programs against the same
``--cache-dir`` at the same time, racing writes to the same span /
unit-summary / shared-memo keys.  The content-addressed store plus
atomic renames plus the memo lease must deliver: zero corrupted records
(``disk.error`` stays 0 on a subsequent full read-back), no livelock
(both writers finish within the timeout), and a store a third engine
can warm-start from with fingerprints identical to a from-scratch
analysis.
"""

import pickle
import subprocess
import sys

from repro.incremental import AnalysisEngine
from repro.incremental.fingerprint import fingerprint_digest
from repro.service import build_engine
from repro.workloads.generator import generate_program

from ..serving import child_env

#: Subprocess body: analyze a program against a shared cache dir twice
#: (cold then warm), exercising span/usum/memo writes and the leased
#: memo read-merge-write against a live sibling process.
WRITER = """
import sys
from repro.service import build_engine
from repro.workloads.generator import generate_program

cache_dir, n = sys.argv[1], int(sys.argv[2])
source = generate_program(n_routines=n)
for _ in range(2):
    engine = build_engine(cache_dir=cache_dir)
    engine.analyze(source)
print("ok")
"""


def _spawn_writer(cache_dir, n_routines):
    return subprocess.Popen(
        [sys.executable, "-c", WRITER, str(cache_dir), str(n_routines)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )


def test_two_subprocess_writers_no_corruption_no_livelock(tmp_path):
    cache_dir = tmp_path / "cache"
    # Same n_routines → byte-identical generated program → both
    # processes race the *same* span, usum and memo keys.
    a = _spawn_writer(cache_dir, 12)
    b = _spawn_writer(cache_dir, 12)
    out_a, err_a = a.communicate(timeout=300)
    out_b, err_b = b.communicate(timeout=300)
    assert a.returncode == 0, err_a
    assert b.returncode == 0, err_b
    assert "ok" in out_a and "ok" in out_b

    # No leftover lease: both processes released (or their records
    # expired and nothing is stuck).
    lease = cache_dir / "locks" / "memo.lease"
    if lease.exists():
        import json, time
        rec = json.loads(lease.read_bytes())
        assert rec["expires"] <= time.time() + 15  # bounded, not stuck

    # Every record in the store unpickles and validates: zero corrupted
    # records after the race.
    from repro.service.diskcache import FORMAT_VERSION, _MAGIC

    records = list(cache_dir.rglob("*.pkl"))
    assert records, "the writers must have populated the store"
    for path in records:
        rec = pickle.loads(path.read_bytes())
        assert rec["magic"] == _MAGIC
        assert rec["format"] == FORMAT_VERSION

    # A third engine warm-starts off the raced store with fingerprints
    # identical to a from-scratch analysis.
    source = generate_program(n_routines=12)
    third = build_engine(cache_dir=cache_dir)
    _, pa = third.analyze(source)
    assert third.stats.counter("disk.error") == 0
    assert third.stats.counter("disk.warm_start") >= 1
    _, pa_scratch = AnalysisEngine().analyze(source)
    assert fingerprint_digest(pa) == fingerprint_digest(pa_scratch)


def test_overlapping_programs_share_memo_across_processes(tmp_path):
    """Different programs racing one store still interleave cleanly,
    and a later engine absorbs the union of their memo deltas."""

    cache_dir = tmp_path / "cache"
    a = _spawn_writer(cache_dir, 10)
    b = _spawn_writer(cache_dir, 14)
    _, err_a = a.communicate(timeout=300)
    _, err_b = b.communicate(timeout=300)
    assert a.returncode == 0, err_a
    assert b.returncode == 0, err_b

    engine = build_engine(cache_dir=cache_dir)
    engine.analyze(generate_program(n_routines=10))
    # The singleton memo record survived both writers and is absorbable.
    assert engine.stats.counter("memo.delta_absorbed") > 0
    assert engine.stats.counter("disk.error") == 0
