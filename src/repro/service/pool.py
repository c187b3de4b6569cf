"""Pools: run tasks inline, or fan corpus programs out across processes.

Two interchangeable backends execute :func:`repro.service.tasks.run_task`:

* :class:`SerialPool` — tasks run inline, in submission order, on the
  caller's objects (no pickling).  Every session engine runs its parse,
  summary and dependence tasks through a private, stats-less one, and
  it is the ``--jobs 1`` corpus backend.
* :class:`WorkerPool` — a ``ProcessPoolExecutor`` that pickles payloads
  out and results back; it serves corpus batches, one whole program per
  task (``serve --jobs N``, ``corpus analyze --jobs N``).  Its workers
  start by forkserver (spawn where that is missing), never by fork,
  because the pool lives in a threaded server.  Submission
  order is preserved (``executor.map``), so merges on the main process
  are deterministic; a broken pool (killed worker, unpicklable payload)
  degrades to inline execution with a logged warning rather than
  failing the batch.

A pool with stats attached reports utilization into
:class:`~repro.incremental.stats.EngineStats` counters: ``pool.tasks``
/ ``pool.batches`` (work volume), ``pool.busy_s`` (summed task seconds
across workers) and ``pool.wall_s`` (main-process wait), from which the
stats renderer derives utilization.  The process pool additionally
publishes a ``pool.queue_depth`` gauge (with a ``pool.queue_depth.peak``
high watermark) as each batch drains, a ``pool.workers`` gauge when its
executor starts, and ``pool.broken`` when a batch falls back inline.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

from .tasks import run_task, run_task_timed

log = logging.getLogger(__name__)


class SerialPool:
    """Inline task execution: session engines and ``--jobs 1`` corpora."""

    jobs = 1

    def __init__(self, stats=None) -> None:
        self.stats = stats

    def map(self, kind: str, payloads: Sequence[Dict]) -> List:
        t0 = time.perf_counter()
        results = [run_task(kind, p) for p in payloads]
        if self.stats is not None and payloads:
            dt = time.perf_counter() - t0
            self.stats.bump("pool.batches")
            self.stats.bump("pool.tasks", len(payloads))
            self.stats.bump("pool.busy_s", dt)
            self.stats.bump("pool.wall_s", dt)
        return results

    def close(self) -> None:  # symmetry with WorkerPool
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class WorkerPool:
    """Process-pool execution of corpus tasks, created lazily.

    The executor starts on first use (so a server started with
    ``--jobs N`` costs nothing until a corpus batch is actually
    dispatched) and is shared for the pool's lifetime.  ``map`` may be
    called from multiple threads.
    """

    def __init__(self, jobs: int, stats=None) -> None:
        if jobs < 2:
            raise ValueError("WorkerPool needs jobs >= 2; use SerialPool")
        self.jobs = jobs
        self.stats = stats
        self._executor: Optional[ProcessPoolExecutor] = None
        self._inline = SerialPool(stats=None)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Never fork: the pool lives in a server whose transport
            # and handler threads may hold a lock at the moment of the
            # fork, which the child would then wait on forever.
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "forkserver" if "forkserver" in methods else "spawn"
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
            if self.stats is not None:
                self.stats.gauge("pool.workers", self.jobs)
        return self._executor

    def map(self, kind: str, payloads: Sequence[Dict]) -> List:
        if len(payloads) < 2:
            # A single task gains nothing from a round-trip; run inline.
            return self._inline.map(kind, payloads)
        t0 = time.perf_counter()
        if self.stats is not None:
            # Queue-depth gauge: how much of the batch is still in flight.
            self.stats.gauge("pool.queue_depth", len(payloads))
        try:
            executor = self._ensure_executor()
            chunk = max(1, len(payloads) // (self.jobs * 4))
            out: List = []
            busy = 0.0
            for result, seconds in executor.map(
                run_task_timed,
                [(kind, p) for p in payloads],
                chunksize=chunk,
            ):
                out.append(result)
                busy += seconds
                if self.stats is not None:
                    self.stats.gauge(
                        "pool.queue_depth", len(payloads) - len(out)
                    )
        except Exception as exc:  # noqa: BLE001 — degrade, never fail
            log.warning(
                "worker pool failed (%s: %s); falling back to inline "
                "execution for this batch",
                type(exc).__name__,
                exc,
            )
            if self.stats is not None:
                self.stats.bump("pool.broken")
                self.stats.gauge("pool.queue_depth", 0)
            self._shutdown_executor()
            return self._inline.map(kind, payloads)
        if self.stats is not None:
            self.stats.bump("pool.batches")
            self.stats.bump("pool.tasks", len(payloads))
            self.stats.bump("pool.busy_s", busy)
            self.stats.bump("pool.wall_s", time.perf_counter() - t0)
        return out

    def _shutdown_executor(self) -> None:
        if self._executor is not None:
            try:
                self._executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001
                pass
            self._executor = None

    def close(self) -> None:
        self._shutdown_executor()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_pool(jobs, stats=None):
    """``--jobs N`` → the corpus pool backend."""

    if jobs and jobs > 1:
        return WorkerPool(jobs, stats=stats)
    return SerialPool(stats=stats)
