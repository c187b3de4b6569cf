"""Engine observability: per-stage timers and cache hit/miss counters.

Every :class:`~repro.incremental.engine.AnalysisEngine` carries an
:class:`EngineStats`; each pipeline stage (split, parse, bind, callgraph,
the four interprocedural summaries, per-unit dependence analysis) records
wall-clock time plus cache hits and misses.  The M2/M3 benchmarks and the
editor's ``stats`` command read this instead of re-deriving costs from
the outside, so full-vs-incremental comparisons come from real
instrumentation.

The service layer reports through the same object via free-form
``counters``: the corpus pool contributes ``pool.tasks`` /
``pool.batches`` / ``pool.busy_s`` / ``pool.wall_s`` (utilization is
derived as busy ÷ wall at render time) plus the ``pool.queue_depth``
and ``pool.workers`` gauges, the disk cache contributes ``disk.hit`` /
``disk.miss`` / ``disk.write`` / ``disk.evict`` / ``disk.error``, the
engine's warm-reuse machinery contributes ``memo.shared_hits`` /
``memo.shared_misses`` / ``memo.persisted_entries`` (shared pair-test
memo) and ``disk.span_warm`` / ``disk.usum_hit`` / ``disk.usum_miss``
(per-span and per-unit-summary warm starts), and the session server
times every protocol request as a stage named ``req.<op>``.  All
counters surface automatically in :meth:`EngineStats.snapshot` (server
metrics replies) and :meth:`EngineStats.render` (the ``stats`` CLI
command).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

#: Stage display order for :meth:`EngineStats.render`.
STAGES = (
    "split",
    "parse",
    "bind",
    "callgraph",
    "modref",
    "kill",
    "sections",
    "ipconst",
    "dependence",
    "total",
)


@dataclass
class StageStat:
    """Cumulative counters for one pipeline stage."""

    runs: int = 0
    seconds: float = 0.0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0


@dataclass
class EngineStats:
    """Timers and cache counters for one engine, cumulative per stage.

    ``last_seconds`` holds only the most recent :meth:`begin_analysis`
    cycle so interactive tools can show the latency of the *last*
    reanalysis next to session totals.
    """

    stages: Dict[str, StageStat] = field(default_factory=dict)
    analyses: int = 0
    last_seconds: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    def stage(self, name: str) -> StageStat:
        st = self.stages.get(name)
        if st is None:
            st = self.stages[name] = StageStat()
        return st

    def begin_analysis(self) -> None:
        self.analyses += 1
        self.last_seconds = {}

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            st = self.stage(name)
            st.runs += 1
            st.seconds += dt
            self.last_seconds[name] = self.last_seconds.get(name, 0.0) + dt

    def hit(self, name: str, n: int = 1) -> None:
        self.stage(name).hits += n

    def miss(self, name: str, n: int = 1) -> None:
        self.stage(name).misses += n

    def bump(self, name: str, n: float = 1) -> None:
        """Increment a free-form service counter (pool/disk/server)."""

        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set a free-form gauge to its current value, tracking the high
        watermark in ``<name>.peak`` (e.g. worker-pool queue depth)."""

        self.counters[name] = value
        peak = name + ".peak"
        if value > self.counters.get(peak, 0):
            self.counters[peak] = value

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def pool_utilization(self) -> float:
        """Worker busy time over main-process wait time (≈ effective
        parallel speedup of the dispatched batches)."""

        wall = self.counters.get("pool.wall_s", 0.0)
        busy = self.counters.get("pool.busy_s", 0.0)
        return busy / wall if wall else 0.0

    def reset(self) -> None:
        self.stages.clear()
        self.analyses = 0
        self.last_seconds = {}
        self.counters.clear()

    def snapshot(self) -> Dict[str, object]:
        """Machine-readable view (for the benchmark JSON artifacts)."""

        return {
            "analyses": self.analyses,
            "last_seconds": dict(self.last_seconds),
            "counters": dict(self.counters),
            "stages": {
                name: {
                    "runs": st.runs,
                    "seconds": st.seconds,
                    "hits": st.hits,
                    "misses": st.misses,
                }
                # Copied in one call: request threads add stages.
                for name, st in dict(self.stages).items()
            },
        }

    def render(self) -> str:
        """Human-readable table for the ``stats`` command / ``--profile``."""

        rows = [f"analyses: {self.analyses}"]
        header = (
            f"{'stage':<11} {'runs':>5} {'total s':>9} {'last s':>9} "
            f"{'hits':>6} {'miss':>6} {'hit%':>6}"
        )
        rows.append(header)
        rows.append("-" * len(header))
        names = [s for s in STAGES if s in self.stages]
        names += [s for s in sorted(self.stages) if s not in STAGES]
        for name in names:
            st = self.stages[name]
            looked = st.hits + st.misses
            rate = f"{100.0 * st.hit_rate:5.1f}%" if looked else "     -"
            rows.append(
                f"{name:<11} {st.runs:>5} {st.seconds:>9.4f} "
                f"{self.last_seconds.get(name, 0.0):>9.4f} "
                f"{st.hits:>6} {st.misses:>6} {rate:>6}"
            )
        if self.counters:
            rows.append("")
            for name in sorted(self.counters):
                value = self.counters[name]
                shown = f"{value:.4f}" if name.endswith("_s") else f"{value:g}"
                rows.append(f"{name:<16} {shown:>12}")
            if "pool.wall_s" in self.counters:
                rows.append(
                    f"{'pool.utilization':<16} "
                    f"{self.pool_utilization():>11.2f}x"
                )
        return "\n".join(rows)
