"""One merged service-metrics snapshot, shared by server and CLI.

The satellite rule this module enforces: the server's ``metrics`` op and
the editor's ``stats`` command must report the *same keys with the same
meanings*, so a dashboard scraping the server and a user eyeballing the
CLI never argue about names.  :func:`merged_metrics` is the single
producer — both callers hand it their stats object, corpus pool and
shared memo and get one flat ``{key: number}`` dict:

* ``pool.workers`` / ``pool.queue_depth`` (+ ``.peak``) — live gauges
  of the corpus pool, the width re-read from the pool itself, so the
  snapshot reflects *now*, not the last time a batch happened to
  publish.
* ``pool.tasks`` / ``pool.batches`` / ``pool.busy_s`` / ``pool.wall_s``
  / ``pool.utilization`` — cumulative corpus work volume and the
  derived busy-over-wall speedup.
* ``memo.shared_hits`` / ``memo.shared_misses`` / ``memo.shared_hit_rate``
  / ``memo.entries`` — shared pair-test memo totals, read from the memo
  object (the authoritative source) rather than whichever engine last
  copied them.
* ``memo.delta_absorbed`` / ``memo.delta_exported`` /
  ``memo.persisted_entries`` — entries folded in from other processes'
  memo segments, entries written as new segments, and the distinct
  entries in the segments the store has read or written.
* ``disk.*`` — persistent-store counters, passed through from the
  stats counters verbatim.
* ``server.connections.open`` / ``server.connections.peak`` /
  ``server.uptime_s`` — live transport gauges (how many clients are
  connected right now, the high-water mark, and how long this server
  process has been up), read from the server when one is attached.
* ``net.bytes_in`` / ``net.bytes_out`` — wire bytes the transport
  actually read and wrote (JSON lines and deflate alike).
  ``net.bytes_out_raw`` is the JSON those bytes carry before deflate,
  so ``net.compress_ratio = bytes_out / bytes_out_raw`` (1.0 when
  nothing was written, lower is better).  ``net.coalesced_events`` /
  ``net.flushes`` count events that shared a deflate flush with another
  event, and writer flushes.  Transport, journal and memo-segment
  counters are server-scoped, so a session-bound ``metrics`` request
  overlays them from the server stats rather than the engine's.
* ``analyses`` — how many engine analysis cycles fed these numbers.

Keys with a zero value are still present (a dashboard wants stable
columns); keys for absent subsystems (no pool, no memo, no store) are
simply whatever the counters already recorded.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional


#: Counter keys always present in a merged snapshot, even at zero —
#: scrapers get a stable schema regardless of which subsystems ran.
STABLE_KEYS = (
    "pool.workers",
    "pool.queue_depth",
    "pool.tasks",
    "pool.batches",
    "memo.shared_hits",
    "memo.shared_misses",
    "memo.entries",
    "memo.delta_absorbed",
    "memo.delta_exported",
    "memo.persisted_entries",
    "corpus.jobs",
    "corpus.programs",
    "corpus.errors",
    "server.connections.open",
    "server.connections.peak",
    "server.uptime_s",
    "net.bytes_in",
    "net.bytes_out",
    "net.bytes_out_raw",
    "net.coalesced_events",
    "net.flushes",
    "journal.records",
    "journal.bytes",
    "journal.replays",
    "journal.restores",
)


class ConnectionGauge:
    """Open/peak connection counts, updated by every transport.

    Both the thread-per-connection transport and the asyncio fleet
    transport call :meth:`enter` / :meth:`leave` around each client, so
    the ``metrics`` op reports one truthful pair of gauges regardless of
    which front end accepted the connection.
    """

    def __init__(self) -> None:
        self.open = 0
        self.peak = 0
        self._lock = threading.Lock()

    def enter(self) -> None:
        with self._lock:
            self.open += 1
            if self.open > self.peak:
                self.peak = self.open

    def leave(self) -> None:
        with self._lock:
            self.open = max(0, self.open - 1)


def merged_metrics(
    stats, pool=None, memo=None, server=None, net_stats=None
) -> Dict[str, float]:
    """The one service-metrics dict (see module docstring for keys).

    ``net_stats`` lets a session-bound snapshot overlay the server-scoped
    counters (``net.*``, ``journal.*``, memo segments) on top.
    """

    out: Dict[str, float] = {}
    for key in STABLE_KEYS:
        out[key] = 0
    # Pass through every recorded counter: disk.*, pool.*, memo.delta_*,
    # plus anything a future subsystem adds.
    for key, value in stats.counters.items():
        out[key] = value
    if net_stats is not None and net_stats is not stats:
        # Transport traffic, journal durability and the store's memo
        # segments are server-scoped counters; overlay them so a
        # session-bound snapshot still reports them truthfully.
        for key, value in net_stats.counters.items():
            if key.startswith(
                ("net.", "journal.", "memo.delta_", "memo.persisted_entries")
            ):
                out[key] = value
    out["analyses"] = stats.analyses
    if pool is not None:
        # Live gauges beat the last-published counter values.
        out["pool.workers"] = getattr(pool, "jobs", 1)
    if memo is not None:
        out["memo.shared_hits"] = memo.hits
        out["memo.shared_misses"] = memo.misses
        out["memo.entries"] = len(memo.entries)
    if server is not None:
        gauge = getattr(server, "connections", None)
        if gauge is not None:
            out["server.connections.open"] = gauge.open
            out["server.connections.peak"] = gauge.peak
        started = getattr(server, "started_monotonic", None)
        if started is not None:
            out["server.uptime_s"] = time.monotonic() - started
    return derive_ratios(out)


def derive_ratios(out: Dict[str, float]) -> Dict[str, float]:
    """Set ``memo.shared_hit_rate``, ``pool.utilization`` and
    ``net.compress_ratio`` from the totals in ``out``.  Ratios do not
    sum, so a merge of several snapshots (the fleet router's) sums the
    totals and derives the ratios again."""

    hits = out.get("memo.shared_hits", 0)
    misses = out.get("memo.shared_misses", 0)
    looked = hits + misses
    out["memo.shared_hit_rate"] = hits / looked if looked else 0.0
    wall = out.get("pool.wall_s", 0.0)
    busy = out.get("pool.busy_s", 0.0)
    out["pool.utilization"] = busy / wall if wall else 0.0
    raw = out.get("net.bytes_out_raw", 0)
    out["net.compress_ratio"] = out.get("net.bytes_out", 0) / raw if raw else 1.0
    return out


def render_metrics(metrics: Dict[str, float]) -> str:
    """Human-readable table of a merged snapshot (the ``stats`` CLI's
    service-metrics section — same keys the server's ``metrics`` op
    returns)."""

    rows = ["service metrics"]
    rows.append("-" * 30)
    for key in sorted(metrics):
        value = metrics[key]
        if key.endswith(("_s", "_rate", "utilization")):
            shown = f"{value:.4f}"
        else:
            shown = f"{value:g}"
        rows.append(f"{key:<24} {shown:>12}")
    return "\n".join(rows)
