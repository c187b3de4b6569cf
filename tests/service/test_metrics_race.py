"""Metrics snapshots taken while new counters appear.

Request threads and the event loop add counter and stage names as they
go (``bump``, ``timer("req.<op>")``), so each function that reads them
for a ``metrics`` or ``stats`` reply must not walk a dict that another
thread is growing (``dictionary changed size during iteration``).
"""

import sys
import threading
import time

from repro.fleet import FleetRouter
from repro.incremental.stats import EngineStats
from repro.service.metrics import merged_metrics


def test_snapshots_survive_counters_appearing(monkeypatch):
    stats = EngineStats()
    server_stats = EngineStats()
    router = FleetRouter(["127.0.0.1:1"], stats=stats)
    # No shard to ask: the router merges its own counters only.
    monkeypatch.setattr(
        router, "_forward", lambda *a, **k: {"metrics": {}, "store": None}
    )
    readers = (
        lambda: merged_metrics(stats, net_stats=server_stats),
        stats.snapshot,
        lambda: router._op_metrics({}, None),
    )
    stop = threading.Event()

    def grow() -> None:
        i = 0
        while not stop.is_set():
            stats.bump(f"c{i}")
            server_stats.bump(f"net.c{i}")
            with stats.timer(f"req.s{i}"):
                pass
            i += 1

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    grower = threading.Thread(target=grow)
    grower.start()
    try:
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            for read in readers:
                read()
    finally:
        stop.set()
        grower.join()
        sys.setswitchinterval(old)
        router.close()
