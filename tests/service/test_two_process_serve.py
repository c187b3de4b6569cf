"""Two ``python -m repro serve`` processes sharing one ``--cache-dir``.

The acceptance scenario of the multi-process shared store: two *real*
server processes run concurrently against the same cache directory; the
first populates it while the second folds in the memo segment the first
wrote (``memo.delta_absorbed > 0`` in its metrics), analyses stay
fingerprint-identical across processes (and to the in-process serial
engine), and the streamed event ordering guarantees hold across the
process boundary.
"""

import sys

import pytest

from repro.incremental import AnalysisEngine
from repro.incremental.fingerprint import fingerprint_digest
from repro.service import PedClient
from repro.workloads.generator import generate_program

from ..serving import child_env


def _spawn_server(cache_dir):
    return PedClient.spawn(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--stdio",
            "--cache-dir",
            str(cache_dir),
        ],
        env=child_env(),
    )


@pytest.fixture(scope="module")
def workload():
    return generate_program(n_routines=20)


def test_two_servers_share_store_and_exchange_memo_deltas(
    tmp_path, workload
):
    cache_dir = tmp_path / "cache"
    serial_digest = fingerprint_digest(
        AnalysisEngine().analyze(workload)[1]
    )

    first = _spawn_server(cache_dir)
    second = _spawn_server(cache_dir)
    try:
        assert first.request("ping", wait=60)["pong"] is True
        assert second.request("ping", wait=60)["pong"] is True

        # Process A populates the store (spans, summaries, memo segment).
        first.request("open", session="a", source=workload, wait=300)
        fp_a = first.request("fingerprint", session="a", wait=60)
        metrics_a = first.request("metrics", wait=60)["metrics"]
        assert metrics_a["memo.delta_exported"] > 0

        # Process B — still running concurrently — opens the same
        # program with streaming: ordered events across the process
        # boundary, then folds in A's memo segment from the shared store.
        events = list(
            second.stream("open", session="b", source=workload, wait=300)
        )
        assert events[-1].kind == "result"
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert any(e.kind == "analysis.progress" for e in events)

        fp_b = second.request("fingerprint", session="b", wait=60)
        metrics_b = second.request("metrics", wait=60)["metrics"]
        assert metrics_b["memo.delta_absorbed"] > 0

        # Fingerprint parity across: serial in-process, server A,
        # server B warm off A's records.
        assert fp_a["fingerprint"] == serial_digest
        assert fp_b["fingerprint"] == serial_digest

        # The shared store really warmed B: its engine saw disk hits,
        # and no record was corrupted by the concurrent writers.
        assert metrics_b.get("disk.hit", 0) > 0
        assert metrics_b.get("disk.error", 0) == 0
        assert metrics_a.get("disk.error", 0) == 0

        assert first.request("shutdown", wait=60)["shutting_down"]
        assert second.request("shutdown", wait=60)["shutting_down"]
    finally:
        first.close()
        second.close()
    assert first.process.returncode == 0
    assert second.process.returncode == 0


def test_crossreuse_workload_across_processes(tmp_path):
    """A sibling program (half its routines shared) opened in a second
    process gets cross-program warm reuse through the shared store."""

    cache_dir = tmp_path / "cache"
    base = generate_program(n_routines=16)
    marker = "(x(i+1) - x(i-1))"
    parts = base.split("      subroutine upd")
    out = [parts[0]]
    for p in parts[1:]:
        if int(p.split("(")[0]) >= 8:
            p = p.replace(marker, "(x(i+2) - x(i-2))")
        out.append(p)
    sibling = "      subroutine upd".join(out)
    assert sibling != base

    first = _spawn_server(cache_dir)
    second = _spawn_server(cache_dir)
    try:
        first.request("open", session="base", source=base, wait=300)
        second.request("open", session="sib", source=sibling, wait=300)
        fp = second.request("fingerprint", session="sib", wait=60)
        metrics = second.request("metrics", wait=60)["metrics"]
        # Cross-process reuse: B absorbed A's memo (server-wide counter)
        # and warmed spans from the store despite a never-seen program
        # key (per-session engine counter).
        assert metrics["memo.delta_absorbed"] > 0
        assert metrics.get("disk.error", 0) == 0
        session_metrics = second.request(
            "metrics", session="sib", wait=60
        )["metrics"]
        assert session_metrics.get("disk.span_warm", 0) > 0

        scratch = fingerprint_digest(AnalysisEngine().analyze(sibling)[1])
        assert fp["fingerprint"] == scratch

        assert first.request("shutdown", wait=60)["shutting_down"]
        assert second.request("shutdown", wait=60)["shutting_down"]
    finally:
        first.close()
        second.close()
