"""The analysis service layer: parallel workers, persistence, serving.

Three cooperating subsystems on top of the incremental engine:

* :mod:`repro.service.pool` / :mod:`repro.service.tasks` — fan
  independent per-unit work (parse, summary steps, dependence) out
  across worker processes, with a deterministic inline fallback;
* :mod:`repro.service.diskcache` / :mod:`repro.service.persist` — a
  content-addressed on-disk store that lets a reopened session start
  warm;
* :mod:`repro.service.protocol` / :mod:`repro.service.session_host` /
  :mod:`repro.service.client` — a JSON-lines envelope protocol
  (requests, replies, server-push events with per-connection sequence
  ids), the transport-agnostic session host and a thin client with a
  streaming iterator/callback API.  The host is served over TCP or
  stdio (``python -m repro serve``) by :mod:`repro.fleet.transport`;
* :mod:`repro.service.storelock` — lease-based coordination so N server
  processes can share one ``--cache-dir`` (and exchange pair-test memo
  deltas through it);
* :mod:`repro.service.metrics` — the one merged service-metrics
  snapshot the server's ``metrics`` op and the ``stats`` CLI both
  report.

``build_engine`` is the one-stop factory the CLI and sessions use to
turn ``--jobs`` / ``--cache-dir`` into a configured engine.

The server/client pair is imported lazily: they depend on the editor
package, which itself builds on the engine this package supplies.
"""

from __future__ import annotations

from typing import Optional

from .diskcache import DiskCache, FORMAT_VERSION
from .metrics import merged_metrics, render_metrics
from .persist import PersistentStore
from .pool import ElasticWorkerPool, SerialPool, WorkerPool, make_pool
from .protocol import MAX_REQUEST_BYTES, PROTOCOL_VERSION
from .storelock import StoreLease

__all__ = [
    "DiskCache",
    "FORMAT_VERSION",
    "PersistentStore",
    "StoreLease",
    "SerialPool",
    "WorkerPool",
    "ElasticWorkerPool",
    "make_pool",
    "merged_metrics",
    "render_metrics",
    "build_engine",
    "MAX_REQUEST_BYTES",
    "PROTOCOL_VERSION",
    "PedServer",
    "PedClient",
    "PedRequestError",
    "ServerUnavailableError",
    "UnsupportedOpError",
    "ServerEvent",
]


def build_engine(
    features=None,
    jobs=1,
    cache_dir: Optional[str] = None,
    stats=None,
    pool=None,
    store=None,
    shared_memo=None,
):
    """An :class:`~repro.incremental.AnalysisEngine` wired for service.

    ``jobs > 1`` attaches a process pool (``"auto"`` an elastic one),
    ``cache_dir`` a persistent store; the defaults reproduce the classic
    serial, in-memory engine.  Explicit ``pool`` / ``store`` /
    ``shared_memo`` arguments (e.g. the server's shared instances) win
    over the convenience flags.
    """

    from ..incremental.engine import AnalysisEngine
    from ..incremental.stats import EngineStats

    stats = stats or EngineStats()
    if pool is None:
        pool = make_pool(jobs, stats=stats)
    if store is None and cache_dir:
        store = PersistentStore.at(cache_dir, stats=stats)
    return AnalysisEngine(
        features=features,
        stats=stats,
        pool=pool,
        store=store,
        shared_memo=shared_memo,
    )


def __getattr__(name: str):
    if name == "PedServer":
        from .session_host import PedServer

        return PedServer
    if name in (
        "PedClient",
        "PedRequestError",
        "ServerUnavailableError",
        "UnsupportedOpError",
        "ServerEvent",
    ):
        from . import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
