"""Corpus-scale batch analysis: many programs, fleet-wide rollups.

One corpus job holds N named programs; each program runs the whole
per-program analysis as a self-contained task (so the batch can fan out
over a :class:`~repro.service.pool.WorkerPool` — the payload carries
everything and the record it returns is small), producing a compact
**result record**:
loop/parallelizability totals, the obstacle histogram, the
dependence-test tier histogram, transformation-applicability counts and
the program's analysis fingerprint digest.  Aggregates
(:mod:`repro.pipeline.aggregate`) roll those records up fleet-wide,
cached under keys derived from the records themselves.

:class:`CorpusRunner` is the executor both the CLI (``python -m repro
corpus analyze``) and the session host's ``corpus.*`` ops drive; the
host adds job registry, background execution and streamed per-program
``analysis.progress`` events on top.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..interproc.program import FeatureSet
from .aggregate import AGGREGATES, aggregate_key, run_aggregate

__all__ = [
    "CorpusError",
    "CorpusJob",
    "CorpusRunner",
    "analyze_program_result",
    "job_status",
    "LOOP_TRANSFORMS",
    "obstacle_category",
]

#: Loop-targeted transformations probed for Table-2-style applicability
#: counts (a fixed, deterministic subset: each accepts a bare ``loop``).
LOOP_TRANSFORMS = (
    "parallelize",
    "interchange",
    "distribution",
    "fusion",
    "reversal",
    "stripmine",
    "unroll",
)


class CorpusError(Exception):
    """User-level corpus errors (unknown job, bad program list…)."""


def obstacle_category(text: str) -> str:
    """Normalize one obstacle string to its fleet-wide category.

    ``loop-carried flow dependence on x (<,=) [pending]`` and its
    sibling on ``y`` are the *same* obstacle for rollup purposes; the
    variable, vector and marking are per-loop detail.
    """

    if text.startswith("loop-carried"):
        return " ".join(text.split()[:3])
    return text.split(" at line")[0]


def analyze_program_result(payload: Dict) -> Dict:
    """Analyze one corpus program end to end — a pure, picklable task.

    Runs the canonical engine pipeline (inline, no shared state) on the
    payload's source and projects the analysis onto the corpus result
    record.  Every analysis error becomes an ``error`` record rather
    than an exception: one broken program must not sink the batch.
    """

    from ..incremental.engine import AnalysisEngine
    from ..incremental.fingerprint import fingerprint_digest
    from ..transform.base import TransformContext
    from ..transform.registry import get_transformation

    name = payload["name"]
    features = payload.get("features") or FeatureSet()
    try:
        engine = AnalysisEngine(features=features)
        _sf, pa = engine.analyze(
            payload["source"], assertions=payload.get("asserts")
        )
    except Exception as exc:  # noqa: BLE001 — errors are results here
        return {
            "program": name,
            "error": f"{type(exc).__name__}: {exc}",
            "digest": "",
        }
    obstacles: Dict[str, int] = {}
    tiers: Dict[str, int] = {}
    transforms: Dict[str, int] = {}
    loops = 0
    parallel = 0
    for _uname, ua in sorted(pa.units.items()):
        for tier, n in ua.tester.pair_resolution.items():
            if n:
                tiers[tier] = tiers.get(tier, 0) + n
        ctx = TransformContext(ua.unit, ua, pa.source)
        for nest in ua.loops:
            loops += 1
            info = ua.info_for(nest.loop)
            if info.parallelizable:
                parallel += 1
            for cat in sorted(
                {obstacle_category(o) for o in info.obstacles}
            ):
                obstacles[cat] = obstacles.get(cat, 0) + 1
            for tname in LOOP_TRANSFORMS:
                try:
                    advice = get_transformation(tname).diagnose(
                        ctx, loop=nest.loop
                    )
                except Exception:  # noqa: BLE001 — probe, not verdict
                    continue
                if advice.applicable:
                    transforms[tname] = transforms.get(tname, 0) + 1
    return {
        "program": name,
        "error": None,
        "digest": fingerprint_digest(pa),
        "units": len(pa.units),
        "loops": loops,
        "parallel_loops": parallel,
        "obstacles": obstacles,
        "tiers": tiers,
        "transforms": transforms,
    }


def job_status(job: str, states: Dict[str, str]) -> Dict:
    """A corpus job's status reply, counted from its ``{program:
    state}`` map (a host's job, or a router's merge of its shards')."""

    done = sum(1 for s in states.values() if s in ("done", "error"))
    return {
        "job": job,
        "total": len(states),
        "done": done,
        "running": sum(1 for s in states.values() if s == "running"),
        "errors": sum(1 for s in states.values() if s == "error"),
        "complete": done == len(states),
        "programs": states,
    }


@dataclass
class CorpusJob:
    """One corpus: named programs, their states, cached aggregates."""

    id: str
    features: FeatureSet = field(default_factory=FeatureSet)
    #: Program name -> source text, in submission order.
    programs: Dict[str, str] = field(default_factory=dict)
    #: Program name -> per-unit assertion texts.
    asserts: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)
    #: Program name -> ``pending`` / ``running`` / ``done`` / ``error``.
    states: Dict[str, str] = field(default_factory=dict)
    #: Program name -> result record (only for done/error programs).
    results: Dict[str, Dict] = field(default_factory=dict)
    #: Aggregate cache: name -> (:func:`aggregate_key`, value).
    _agg_cache: Dict[str, Tuple[tuple, Dict]] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Serializes whole runs of this job (concurrent submits queue up
    #: instead of racing the pending list).
    run_lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, name: str, source: str, asserts=None) -> None:
        with self.lock:
            self.programs[name] = source
            if asserts:
                self.asserts[name] = asserts
            else:
                self.asserts.pop(name, None)
            # (Re)submitting a program resets it; its result digest will
            # change, invalidating every aggregate through its key.
            self.states[name] = "pending"
            self.results.pop(name, None)

    def pending(self) -> List[str]:
        with self.lock:
            return [
                n for n, s in self.states.items() if s == "pending"
            ]

    def snapshot(self) -> Dict:
        with self.lock:
            states = dict(self.states)
        return job_status(self.id, states)

    def result_records(self) -> List[Dict]:
        with self.lock:
            return [
                self.results[n]
                for n in self.programs
                if n in self.results
            ]


class CorpusRunner:
    """Executes corpus jobs over a worker pool; owns the job registry."""

    #: How many programs ship to the pool per chunk, per worker — small
    #: enough that streamed progress stays granular, large enough that
    #: the pool's per-batch overhead amortizes.
    CHUNK_PER_WORKER = 2

    def __init__(self, pool=None, features=None, stats=None) -> None:
        from ..service.pool import SerialPool

        self.pool = pool if pool is not None else SerialPool()
        self.features = features
        self.stats = stats
        self.jobs: Dict[str, CorpusJob] = {}
        self._ids = itertools.count(1)
        self._jobs_lock = threading.Lock()

    def _bump(self, key: str, n: float = 1) -> None:
        if self.stats is not None:
            self.stats.bump(key, n)

    # ------------------------------------------------------------------
    # job registry
    # ------------------------------------------------------------------

    def submit(
        self,
        programs: Sequence[Tuple[str, str]],
        job: Optional[str] = None,
    ) -> CorpusJob:
        """Create (or extend) a job with ``(name, source)`` programs."""

        if not programs:
            raise CorpusError("corpus submit needs at least one program")
        with self._jobs_lock:
            if job is None:
                job = f"c{next(self._ids)}"
            found = self.jobs.get(job)
            if found is None:
                found = self.jobs[job] = CorpusJob(
                    job, features=self.features or FeatureSet()
                )
                self._bump("corpus.jobs")
        for name, source in programs:
            if not name or not isinstance(source, str):
                raise CorpusError(
                    "each program needs a name and source text"
                )
            found.add(name, source)
        return found

    def get(self, job: str) -> CorpusJob:
        with self._jobs_lock:
            found = self.jobs.get(job)
        if found is None:
            raise CorpusError(f"no corpus job named {job!r}")
        return found

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        job: CorpusJob,
        progress: Optional[Callable[[Dict], None]] = None,
    ) -> Dict:
        """Analyze every pending program, fanning out over the pool.

        Programs ship in chunks sized to the pool's width; after each
        chunk merges, ``progress`` (when given) receives one record per
        program — the host routes these to ``analysis.progress`` events.
        Returns the job's status snapshot.
        """

        with job.run_lock:
            return self._run_locked(job, progress)

    def _run_locked(
        self,
        job: CorpusJob,
        progress: Optional[Callable[[Dict], None]] = None,
    ) -> Dict:
        names = job.pending()
        total = len(job.programs)
        chunk_size = self.pool.jobs * self.CHUNK_PER_WORKER
        done_before = total - len(names)
        completed = 0
        for start in range(0, len(names), chunk_size):
            chunk = names[start : start + chunk_size]
            with job.lock:
                for n in chunk:
                    job.states[n] = "running"
            payloads = [
                {
                    "name": n,
                    "source": job.programs[n],
                    "features": job.features,
                    "asserts": job.asserts.get(n),
                }
                for n in chunk
            ]
            for record in self.pool.map("corpus", payloads):
                name = record["program"]
                failed = bool(record.get("error"))
                with job.lock:
                    job.results[name] = record
                    job.states[name] = "error" if failed else "done"
                self._bump("corpus.programs")
                if failed:
                    self._bump("corpus.errors")
                completed += 1
                if progress is not None:
                    progress(
                        {
                            "phase": "corpus.program",
                            "job": job.id,
                            "program": name,
                            "status": job.states[name],
                            "done": done_before + completed,
                            "total": total,
                        }
                    )
        return job.snapshot()

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def query(self, job: CorpusJob, aggregate: str) -> Tuple[Dict, bool]:
        """One rollup over the job's finished results.

        Returns ``(value, cached)``: the rollup's value and whether it
        replayed from the job's cache.  The cached value is reused while
        the job's finished records — their ``(program, digest)`` pairs —
        stand unchanged, so adding or changing a program recomputes it;
        counters land in ``node.agg.<name>.hit`` / ``.miss``.
        """

        if aggregate not in AGGREGATES:
            known = ", ".join(sorted(AGGREGATES))
            raise CorpusError(
                f"unknown aggregate {aggregate!r}; known: {known}"
            )
        records = [
            r for r in job.result_records() if not r.get("error")
        ]
        key = aggregate_key(records)
        with job.lock:
            cached = job._agg_cache.get(aggregate)
        if cached is not None and cached[0] == key:
            self._bump(f"node.agg.{aggregate}.hit")
            return cached[1], True
        self._bump(f"node.agg.{aggregate}.miss")
        value = run_aggregate(aggregate, records)
        with job.lock:
            job._agg_cache[aggregate] = (key, value)
        return value, False
