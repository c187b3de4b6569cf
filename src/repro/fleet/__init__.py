"""The fleet serving tier: many hosts behind one addressable front end.

The session service (:mod:`repro.service`) scales one *process* — a
worker pool per server, lease-coordinated sharing of one cache dir per
machine.  This package scales the *fleet*:

* :mod:`repro.fleet.transport` — the one front end: an :mod:`asyncio`
  transport speaking the :mod:`repro.service.protocol` envelopes over
  TCP or stdio, for a session host and a router alike.  One event loop
  multiplexes thousands of connections; request bodies run on the
  host's worker threads.  Per-connection backpressure via a bounded
  outbound queue plus ``drain()``, graceful drain on shutdown, and
  connection gauges feeding the ``metrics`` op.
* :mod:`repro.fleet.ring` — a consistent-hash ring mapping program and
  session keys onto shard nodes, with an ordered preference walk for
  failover rehash.
* :mod:`repro.fleet.router` — a thin router process: hashes each
  request's key onto the ring, forwards requests (and streamed events)
  to the owning shard transparently, fans ``corpus.submit`` out across
  shards and merges the per-shard partials into one aggregate reply,
  and survives shard death with bounded retry + rehash.
* :mod:`repro.fleet.gossip` — cross-shard propagation of the shared
  pair-test memo over the ``memo.pull`` / ``memo.push`` ops, so a
  verdict proved on one shard warms the whole fleet.

``python -m repro serve`` serves one session host on the transport;
``python -m repro fleet shard`` (the same, on an ephemeral port) /
``fleet route`` stand up a routed fleet (see the README quick-start).
"""

from __future__ import annotations

from .ring import HashRing

__all__ = [
    "HashRing",
    "AsyncTransport",
    "serve_async_tcp",
    "serve_async_stdio",
    "FleetRouter",
    "MemoGossip",
]


def __getattr__(name: str):
    if name in ("AsyncTransport", "serve_async_tcp", "serve_async_stdio"):
        from . import transport

        return getattr(transport, name)
    if name == "FleetRouter":
        from .router import FleetRouter

        return FleetRouter
    if name == "MemoGossip":
        from .gossip import MemoGossip

        return MemoGossip
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
