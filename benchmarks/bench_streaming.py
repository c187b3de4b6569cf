"""Experiment M4 — streaming responsiveness.

An interactive front end cares about *time to first signal*, not just
time to the full analysis: a progress bar that appears after the work is
done is decoration.  This bench opens a 40-routine workload through the
streaming protocol and measures the latency of the first
``analysis.progress`` event against the terminal reply, recording both
— plus the total wire bytes the client saw (``bench_wire.py`` compares
those across protocol levels) — to ``benchmarks/out/streaming.json``.  The qualitative shape asserted
before timing: at least one progress event strictly precedes the
result, with ordered sequence ids, and the first event lands in a
fraction of the full-reply latency.
"""

import json
import time

import pytest

from repro.fleet import AsyncTransport
from repro.service import PedClient, PedServer
from repro.workloads.generator import generate_program

from conftest import save_artifact


@pytest.fixture
def served_client():
    srv = PedServer(max_workers=4)
    transport = AsyncTransport(srv)
    client = PedClient.connect(port=transport.start_background())
    yield client
    client.close()
    transport.stop_background()
    srv.close()


def test_time_to_first_progress_event(benchmark, served_client):
    source = generate_program(n_routines=40)
    state = {"n": 0}

    def timed_streamed_open():
        session = f"s{state['n']}"
        state["n"] += 1
        t0 = time.perf_counter()
        first_event_s = None
        events = 0
        for ev in served_client.stream(
            "open", session=session, source=source, wait=300
        ):
            if ev.kind == "analysis.progress":
                events += 1
                if first_event_s is None:
                    first_event_s = time.perf_counter() - t0
            elif ev.kind == "result":
                total_s = time.perf_counter() - t0
        return first_event_s, total_s, events

    first_s, total_s, events = timed_streamed_open()
    assert events >= 1, "a streamed open must push progress events"
    assert first_s < total_s, "the first event must precede the reply"
    # The point of streaming: the first signal lands well before the
    # full answer (the split phase fires before any unit is analyzed).
    assert first_s < total_s * 0.5, (
        f"first progress event ({first_s:.4f}s) should land in a "
        f"fraction of the full reply ({total_s:.4f}s)"
    )

    save_artifact(
        "streaming.json",
        json.dumps(
            {
                "routines": 40,
                "progress_events": events,
                "time_to_first_progress_s": first_s,
                "time_to_full_reply_s": total_s,
                "first_signal_fraction": first_s / total_s,
                "bytes_received": served_client.bytes_received,
                "bytes_sent": served_client.bytes_sent,
            },
            indent=2,
        )
        + "\n",
    )
    benchmark.pedantic(
        timed_streamed_open, rounds=3, iterations=1, warmup_rounds=0
    )
