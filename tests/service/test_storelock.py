"""Store leases: mutual exclusion, stale takeover, crash recovery.

Exercises the full lease state machine of
:mod:`repro.service.storelock` — free → held → stale — including the
crashed-holder path (an expired lease is taken over with a logged
warning, never a crash) and corrupt-record handling.
"""

import json
import os
import sys
import threading
import time

from repro.incremental.stats import EngineStats
from repro.service import DiskCache, StoreLease


def test_acquire_release_roundtrip(tmp_path):
    lease = StoreLease(tmp_path / "x.lease", holder="a")
    assert lease.acquire(timeout=1.0)
    assert lease.held
    assert (tmp_path / "x.lease").exists()
    lease.release()
    assert not lease.held
    assert not (tmp_path / "x.lease").exists()


def test_second_holder_waits_then_wins(tmp_path):
    path = tmp_path / "x.lease"
    first = StoreLease(path, holder="first")
    second = StoreLease(path, holder="second")
    assert first.acquire(timeout=1.0)
    won = []

    def contender():
        won.append(second.acquire(timeout=5.0))

    t = threading.Thread(target=contender)
    t.start()
    time.sleep(0.1)
    assert not won  # still blocked on the held lease
    first.release()
    t.join(timeout=5.0)
    assert won == [True]
    second.release()


def test_timeout_returns_false_and_counts(tmp_path):
    stats = EngineStats()
    path = tmp_path / "x.lease"
    first = StoreLease(path, holder="first", stats=stats)
    second = StoreLease(path, holder="second", stats=stats)
    assert first.acquire(timeout=1.0)
    assert second.acquire(timeout=0.1) is False
    assert stats.counter("lease.timeout") == 1
    assert stats.counter("lease.acquired") == 1
    first.release()


def test_stale_lease_is_taken_over(tmp_path, caplog):
    """A holder that died past its TTL is recovered from, with a logged
    warning — the crashed-holder requirement."""

    stats = EngineStats()
    path = tmp_path / "x.lease"
    # Simulate a crashed holder: a lease record whose expiry passed.
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(
        json.dumps(
            {"holder": "dead", "pid": 99999, "expires": time.time() - 5}
        ).encode()
    )
    lease = StoreLease(path, holder="alive", ttl=0.5, stats=stats)
    with caplog.at_level("WARNING"):
        assert lease.acquire(timeout=2.0)
    assert stats.counter("lease.takeover") == 1
    assert any("taking over lease" in r.message for r in caplog.records)
    lease.release()


def test_own_orphan_lease_taken_over_despite_live_ttl(tmp_path, caplog):
    """A lease carrying *our own* holder token but an unexpired TTL: a
    previous incarnation of this process orphaned it (the lease is not
    reentrant, so a live self-wait is impossible).  Holder-token
    comparison recovers it immediately; waiting out the TTL — or a
    pid-liveness check, since the pid is ours and very much alive —
    would stall every restart."""

    stats = EngineStats()
    path = tmp_path / "x.lease"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(
        json.dumps(
            {
                "holder": "me",
                "pid": os.getpid(),
                "expires": time.time() + 3600,
            }
        ).encode()
    )
    lease = StoreLease(path, holder="me", stats=stats)
    with caplog.at_level("WARNING"):
        start = time.monotonic()
        assert lease.acquire(timeout=30.0)
    assert time.monotonic() - start < 5.0, "takeover must not wait a TTL"
    assert stats.counter("lease.takeover") == 1
    assert any(
        "previous incarnation" in r.message for r in caplog.records
    )
    lease.release()


def test_same_pid_different_holder_is_respected(tmp_path):
    """The converse guard: a record with *our pid* but someone else's
    holder token (another thread of this process, or a pid-reusing
    sibling on another host) is legitimately held — pid alone proves
    nothing either way."""

    stats = EngineStats()
    path = tmp_path / "x.lease"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(
        json.dumps(
            {
                "holder": "someone-else",
                "pid": os.getpid(),
                "expires": time.time() + 3600,
            }
        ).encode()
    )
    lease = StoreLease(path, holder="me", stats=stats)
    assert lease.acquire(timeout=0.2) is False
    assert stats.counter("lease.takeover") == 0
    assert stats.counter("lease.timeout") == 1


def test_corrupt_record_treated_as_stale(tmp_path):
    path = tmp_path / "x.lease"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"\x00garbage not json\xff")
    lease = StoreLease(path, holder="alive", stats=EngineStats())
    assert lease.acquire(timeout=2.0)
    lease.release()


def test_renew_extends_only_unexpired_holder(tmp_path):
    path = tmp_path / "x.lease"
    lease = StoreLease(path, holder="a", ttl=5.0)
    assert lease.acquire(timeout=1.0)
    assert lease.renew()
    lease.release()
    # Not held: renew must refuse.
    assert lease.renew() is False


def test_expired_lease_cannot_renew(tmp_path):
    path = tmp_path / "x.lease"
    lease = StoreLease(path, holder="a", ttl=0.05)
    assert lease.acquire(timeout=1.0)
    time.sleep(0.1)  # let the TTL lapse
    assert lease.renew() is False
    assert not lease.held


def test_release_respects_takeover(tmp_path):
    """A holder whose lease was taken over must not unlink the new
    holder's record on release."""

    path = tmp_path / "x.lease"
    old = StoreLease(path, holder="old", ttl=0.05)
    assert old.acquire(timeout=1.0)
    time.sleep(0.1)
    new = StoreLease(path, holder="new", ttl=5.0)
    assert new.acquire(timeout=2.0)
    old.release()  # too late: the record belongs to "new" now
    assert path.exists()
    rec = json.loads(path.read_bytes())
    assert rec["holder"] == "new"
    new.release()


def test_context_manager(tmp_path):
    path = tmp_path / "x.lease"
    with StoreLease(path, holder="a") as lease:
        assert lease.held
    assert not path.exists()


def test_diskcache_lease_lives_outside_pkl_namespace(tmp_path):
    """Lease files sit under <root>/locks/ where the LRU eviction
    (which only walks .pkl files) can never reap them."""

    stats = EngineStats()
    cache = DiskCache(tmp_path, stats=stats)
    lease = cache.lease("memo", holder="h")
    assert lease.acquire(timeout=1.0)
    assert (tmp_path / "locks" / "memo.lease").exists()
    assert stats.counter("lease.acquired") == 1
    lease.release()


def test_threaded_mutual_exclusion(tmp_path):
    """N threads hammering one lease: the guarded counter never tears."""

    path = tmp_path / "x.lease"
    state = {"inside": 0, "max_inside": 0, "done": 0}
    guard = threading.Lock()

    def worker(i):
        lease = StoreLease(path, holder=f"w{i}", ttl=5.0)
        for _ in range(5):
            assert lease.acquire(timeout=30.0)
            with guard:
                state["inside"] += 1
                state["max_inside"] = max(
                    state["max_inside"], state["inside"]
                )
            time.sleep(0.002)
            with guard:
                state["inside"] -= 1
            lease.release()
        with guard:
            state["done"] += 1

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert state["done"] == 4
    assert state["max_inside"] == 1


def test_contended_lease_is_never_mistaken_for_corrupt(tmp_path):
    """Live holders cycling one lease: no waiter may ever read a lease
    being created as corrupt and break it (no holder crashes here, so
    any takeover is a bug)."""

    path = tmp_path / "x.lease"
    stats = [EngineStats() for _ in range(4)]

    def worker(i):
        lease = StoreLease(path, holder=f"w{i}", ttl=30.0, stats=stats[i])
        for _ in range(150):
            assert lease.acquire(timeout=30.0)
            lease.release()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sum(s.counter("lease.acquired") for s in stats) == 600
    assert sum(s.counter("lease.takeover") for s in stats) == 0
    assert os.listdir(tmp_path) == []  # no lease, no leftover temp file
