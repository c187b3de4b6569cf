"""The analysis service layer: task pools, persistence, serving.

Cooperating subsystems on top of the incremental engine:

* :mod:`repro.service.tasks` / :mod:`repro.service.pool` — the task
  kinds the engine runs inline (parse, summary steps, dependence), and
  the process pool that fans corpus batches out one program per task;
* :mod:`repro.service.diskcache` / :mod:`repro.service.persist` — a
  content-addressed on-disk store that lets a reopened session start
  warm; N server processes can share one ``--cache-dir`` and warm each
  other through its immutable pair-test memo segments;
* :mod:`repro.service.protocol` / :mod:`repro.service.session_host` /
  :mod:`repro.service.client` — a JSON-lines envelope protocol
  (requests, replies, server-push events with per-connection sequence
  ids), the transport-agnostic session host and a thin client with a
  streaming iterator/callback API.  The host is served over TCP or
  stdio (``python -m repro serve``) by :mod:`repro.fleet.transport`;
* :mod:`repro.service.metrics` — the one merged service-metrics
  snapshot the server's ``metrics`` op and the ``stats`` CLI both
  report.

``build_engine`` is the one-stop factory the CLI and sessions use to
turn ``--cache-dir`` into a configured engine.

The server/client pair is imported lazily: they depend on the editor
package, which itself builds on the engine this package supplies.
"""

from __future__ import annotations

from typing import Optional

from .diskcache import DiskCache, FORMAT_VERSION
from .metrics import merged_metrics, render_metrics
from .persist import PersistentStore
from .pool import SerialPool, WorkerPool, make_pool
from .protocol import MAX_REQUEST_BYTES, PROTOCOL_VERSION

__all__ = [
    "DiskCache",
    "FORMAT_VERSION",
    "PersistentStore",
    "SerialPool",
    "WorkerPool",
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
    cache_dir: Optional[str] = None,
    stats=None,
    store=None,
    shared_memo=None,
):
    """An :class:`~repro.incremental.AnalysisEngine` wired for service.

    ``cache_dir`` attaches a persistent store; the defaults reproduce
    the classic in-memory engine.  Explicit ``store`` / ``shared_memo``
    arguments (e.g. the server's shared instances) win over the
    convenience flag.
    """

    from ..incremental.engine import AnalysisEngine
    from ..incremental.stats import EngineStats

    stats = stats or EngineStats()
    if store is None and cache_dir:
        store = PersistentStore.at(cache_dir, stats=stats)
    return AnalysisEngine(
        features=features,
        stats=stats,
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
