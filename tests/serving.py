"""Shared test helpers: serve a host in-process on an ephemeral port,
start ``repro`` child processes, and pick names a hash ring places."""

import itertools
import os
from contextlib import contextmanager
from pathlib import Path

from repro.fleet import AsyncTransport

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@contextmanager
def served(host):
    """Run ``host`` behind :class:`AsyncTransport` on a background
    loop; yields the TCP port and drains the transport on exit."""

    transport = AsyncTransport(host)
    port = transport.start_background()
    try:
        yield port
    finally:
        transport.stop_background()


def child_env(**overrides):
    """This process's environment with ``src`` first on ``PYTHONPATH``,
    so a ``python -m repro`` or ``python -c`` child imports this tree;
    ``overrides`` set further variables (``PYTHONHASHSEED``, say)."""

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(overrides)
    return env


def names_owned_by(ring, shard, n, prefix="k"):
    """``n`` program or session names whose ring owner is ``shard``.
    The ring hashes the shards' ephemeral ports, so fixed names can all
    land on one shard."""

    names = (f"{prefix}{i:03d}" for i in itertools.count())
    owned = (k for k in names if ring.preference(k)[0] == shard)
    return list(itertools.islice(owned, n))
