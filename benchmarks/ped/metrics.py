"""The benchmark's numbers: the percentile helper and the two metric
sets a run reports, end-to-end (untraced) and per-layer (traced)."""

from __future__ import annotations

import bisect
import resource
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from trace import LAYERS, Tracer, layer_report
from workloads import RATES, WORKLOADS, Run

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
#: Milliseconds of :func:`workloads.calibration_work` on one CPU of the
#: 2-vCPU x86-64 VM the rates were measured on, at its usual speed.
#: Reported times are scaled by this over the calibration time measured
#: next to them, so a stretch of slower machine reads the same.
CALIBRATION_MS = 0.66


class TailTooThin(ValueError):
    """A tail percentile asked of too few samples to have one."""


def percentile(
    values: List[float], q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """The ``q``-th percentile of ``values`` (linear between closest
    ranks).  A tail (``q > 50``) needs ``min_beyond`` samples beyond it."""

    n = len(values)
    if n == 0:
        raise TailTooThin(f"no samples for p{q:g}")
    if q > 50 and n * (100 - q) / 100 < min_beyond:
        raise TailTooThin(
            f"p{q:g} of {n} samples has fewer than {min_beyond} beyond it"
        )
    xs = sorted(values)
    pos = (n - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def speed(run: Run, start: float, end: float) -> float:
    """How much faster than the reference the machine ran from
    ``start`` to ``end``: ``CALIBRATION_MS`` over the median of the
    calibration samples taken in that time and the three before and
    after it."""

    times = [t for t, _ in run.calibration]
    lo = bisect.bisect_left(times, start)
    hi = bisect.bisect_right(times, end)
    near = [ms for _, ms in run.calibration[max(0, lo - 3) : hi + 3]]
    return CALIBRATION_MS / statistics.median(near)


def scaled(run: Run) -> List[Tuple[str, float, bool, float]]:
    """The run's samples, each ``ms`` scaled to the reference machine
    speed while it was taken; the last field is that scale."""

    out = []
    for kind, ms, traced, end in run.samples:
        f = speed(run, end - ms / 1000, end)
        out.append((kind, ms * f, traced, f))
    return out


def end_to_end(run: Run, min_beyond: int = MIN_BEYOND) -> Dict[str, float]:
    """The metrics a Ped user sees, from an untraced run; times are
    scaled to the reference machine speed (:func:`speed`)."""

    samples = scaled(run)
    ms = [s[1] for s in samples]

    def kind(name):
        return [s[1] for s in samples if s[0] == name]

    return {
        "setup_s": statistics.median(
            (end - start) * speed(run, start, end) for start, end in run.builds
        ),
        "action_ms.p90": percentile(ms, 90, min_beyond),
        "write_ms.p50": percentile(kind("write"), 50),
        "read_ms.p50": percentile(kind("read"), 50),
        "work_per_s": run.work / (sum(ms) / 1000),
        "wire_bytes_per_action": run.wire_bytes / len(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def _share(a: float, b: float) -> float:
    return a / (a + b) if a + b else 0.0


def per_layer(run: Run, tracer: Tracer) -> Dict[str, float]:
    """The per-layer breakdown of a traced run, plus the counters the
    ``metrics`` op reported at its end."""

    samples = scaled(run)
    out = layer_report(tracer.spans, tracer.actions)
    f = statistics.median(s[3] for s in samples if s[2])
    for layer in LAYERS:
        out[f"{layer}.self_ms"] *= f
    c = run.counters

    def nodes(outcome):
        # Analysis graph nodes only; ``node.agg.*`` are corpus rollups.
        return sum(
            v
            for k, v in c.items()
            if k.startswith("node.") and not k.startswith("node.agg.")
            and k.endswith(outcome)
        )

    out["incremental.node_hit_ratio"] = _share(nodes(".hit"), nodes(".miss"))
    out["dependence.memo_hit_rate"] = _share(
        c.get("memo.shared_hits", 0), c.get("memo.shared_misses", 0)
    )
    out["service.disk_hit_ratio"] = _share(
        c.get("disk.hit", 0), c.get("disk.miss", 0)
    )
    raw = c.get("net.bytes_out_raw", 0)
    out["service.net_compress_ratio"] = (
        c.get("net.bytes_out", 0) / raw if raw else 1.0
    )
    out["service.coalesced_events"] = c.get("net.coalesced_events", 0)
    records = c.get("journal.records", 0)
    out["journal.bytes_per_record"] = (
        c.get("journal.bytes", 0) / records if records else 0.0
    )
    traced = [s[1] for s in samples if s[0] == "write" and s[2]]
    plain = [s[1] for s in samples if s[0] == "write" and not s[2]]
    out["trace.overhead"] = (
        statistics.median(traced) / statistics.median(plain) - 1
        if traced and plain
        else 0.0
    )
    return out


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    actions: Optional[int] = None,
    min_beyond: int = MIN_BEYOND,
    out_dir: Optional[Path] = None,
):
    """Run one workload for ``seconds`` at its nominal rate (or for
    ``actions`` timed actions); returns ``(run, metrics)``.  A traced
    run writes its spans to ``out_dir/trace_<workload>.json``."""

    if actions is None:
        # Ten samples beyond action_ms.p90, with room to spare.
        actions = max(12 * min_beyond, round(seconds * RATES[workload]))
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.hook_connect()
    run = Run(seed, actions, 3 * seconds, tracer=tracer)
    try:
        WORKLOADS[workload](run)
    finally:
        if tracer is not None:
            tracer.unhook_connect()
    if tracer is None:
        return run, end_to_end(run, min_beyond)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"trace_{workload}.json")
    return run, per_layer(run, tracer)
