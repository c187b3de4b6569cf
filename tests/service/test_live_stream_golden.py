"""A scripted live session's whole client-visible stream, byte for byte.

Two sessions over one store run every mutating op through
``PedServer.execute`` with ``"stream": true``: open, edit, a rejected
edit, assert, select, a mark that moves the selection, reclassify,
apply, undo and redo, then two reads.  Every ``analysis.progress``
event, every ``invalidation`` broadcast and every terminal reply is one
JSON line in ``golden_live_stream.jsonl``.  Live ops analyze in the
request that mutates, so a change to how replay or restore analyze
must leave this stream exactly as it is.

Regenerate the file (only for a change that means to move the stream,
and say why) with::

    PYTHONPATH=src python -m tests.service.test_live_stream_golden
"""

import json
import tempfile
from pathlib import Path

from repro.service import PedServer

GOLDEN = Path(__file__).with_name("golden_live_stream.jsonl")

SOURCE = (
    "      program main\n"
    "      real a(100), b(100)\n"
    "      call work(a, b, 100)\n"
    "      end\n"
    "      subroutine work(a, b, n)\n"
    "      real a(100), b(100)\n"
    "      do i = 1, n\n"
    "         a(i) = a(i) + 1.0\n"
    "      enddo\n"
    "      do j = 1, n\n"
    "         s = b(j)\n"
    "         b(j) = s * 2.0\n"
    "      enddo\n"
    "      end\n"
)

SCRIPT = [
    {"op": "open", "session": "s", "source": SOURCE},
    {"op": "open", "session": "t", "source": SOURCE},
    {
        "op": "edit",
        "session": "s",
        "start": 8,
        "end": 8,
        "text": "         a(i) = a(i-1) + 1.0",
    },
    {"op": "edit", "session": "s", "start": 11, "end": 11, "text": "  s = = 1"},
    {"op": "assert", "session": "s", "unit": "work", "text": "n >= 1"},
    {"op": "select", "session": "s", "unit": "main"},
    {
        "op": "mark",
        "session": "s",
        "unit": "work",
        "loop": 0,
        "dep": 2,
        "marking": "rejected",
    },
    {
        "op": "reclassify",
        "session": "s",
        "unit": "work",
        "loop": 1,
        "var": "s",
        "as": "private",
    },
    {
        "op": "apply",
        "session": "s",
        "unit": "work",
        "loop": 1,
        "transform": "parallelize",
    },
    {"op": "undo", "session": "s"},
    {"op": "redo", "session": "s"},
    {"op": "loops", "session": "s", "unit": "work"},
    {"op": "fingerprint", "session": "s"},
]


def live_stream() -> str:
    """Run :data:`SCRIPT` on a fresh store-backed server; one JSON line
    per event, broadcast and reply, in the order a client sees them."""

    lines = []

    def line(**item):
        lines.append(json.dumps(item, sort_keys=True))

    with tempfile.TemporaryDirectory() as cache:
        server = PedServer(max_workers=2, cache_dir=cache)
        server.add_listener(lambda kind, data: line(broadcast=kind, data=data))
        try:
            for rid, req in enumerate(SCRIPT, 1):
                reply = server.execute(
                    dict(req, id=rid, stream=True),
                    emit=lambda kind, data: line(event=kind, data=data),
                )
                line(reply=reply)
        finally:
            server.close()
    return "\n".join(lines) + "\n"


def test_live_stream_matches_golden():
    assert live_stream() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(live_stream())
