"""Shared test helper: serve a host in-process on an ephemeral port."""

from contextlib import contextmanager

from repro.fleet import AsyncTransport


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
