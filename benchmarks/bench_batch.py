"""Experiment M7 — batched dependence testing and the binary wire format.

Two performance claims from this PR, measured end to end and recorded
into ``benchmarks/out/batchtest.json``:

1. *Batched tier execution* — collecting the surviving pairs of a loop
   nest into a columnar batch and sweeping the test hierarchy tier by
   tier beats the scalar one-``test_pair``-at-a-time walk.  The bench
   times scalar vs batched per size tier (10..80 routines) in both
   memo modes:

   - **cold** (pair memo off): every pair reaches the tier sweeps —
     this is the first-open path an interactive session pays, and the
     configuration where batching is the operative optimization.  The
     acceptance gate (>= 3x end to end on the 40-routine suite against
     the scalar tester) is asserted here.
   - **warm** (pair memo + shared store on, the production default):
     most pairs replay from the memo, so the batch win is smaller; the
     numbers are recorded alongside so the artifact shows both.

   Fingerprints must be byte-identical scalar vs batched at every size
   in every mode, and the batched engine must stay byte-identical to
   itself across execution modes: serial, ``--jobs 2`` worker pool,
   and a 2-shard consistent-hash fleet.  M1 tier statistics must be
   bit-identical with and without the memo.

2. *Binary delta frames* — a streamed edit session over the
   length-prefixed binary frame protocol with pane deltas transfers
   fewer bytes than the same session over JSON lines.
"""

import json
import time
from dataclasses import asdict

import pytest

from repro.dependence import driver
from repro.evaluation.hierarchy_stats import dependence_test_stats
from repro.fleet import AsyncTransport, FleetRouter
from repro.fortran import parse_and_bind
from repro.incremental import AnalysisEngine, program_fingerprint
from repro.incremental.stats import EngineStats
from repro.interproc import FeatureSet, analyze_program
from repro.pipeline import CorpusRunner
from repro.service import PedClient, PedServer, WorkerPool
from repro.workloads.generator import generate_program

from conftest import OUT_DIR, names_owned_by, save_artifact

SIZES = (10, 20, 40, 80)
ACCEPT_SIZE = 40
ROUNDS = 3


def _merge_artifact(section: str, payload) -> None:
    out = {}
    path = OUT_DIR / "batchtest.json"
    if path.exists():
        try:
            out = json.loads(path.read_text())
        except ValueError:
            out = {}
    out[section] = payload
    save_artifact("batchtest.json", json.dumps(out, indent=2) + "\n")


def _with_hot_path(batch, memo, share, fn):
    saved = (
        driver.HOT_PATH.batch_pairs,
        driver.HOT_PATH.memoize_pairs,
        driver.HOT_PATH.share_pairs,
    )
    driver.HOT_PATH.batch_pairs = batch
    driver.HOT_PATH.memoize_pairs = memo
    driver.HOT_PATH.share_pairs = share
    try:
        return fn()
    finally:
        (
            driver.HOT_PATH.batch_pairs,
            driver.HOT_PATH.memoize_pairs,
            driver.HOT_PATH.share_pairs,
        ) = saved


def _timed_analysis(sf, batch, memo):
    """Best-of-ROUNDS whole-analysis and pair-stage seconds."""

    best_total = best_pair = float("inf")
    pa = None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        pa = _with_hot_path(
            batch, memo, memo, lambda: analyze_program(sf, FeatureSet())
        )
        total = time.perf_counter() - t0
        pair = sum(ua.pair_seconds for ua in pa.units.values())
        best_total = min(best_total, total)
        best_pair = min(best_pair, pair)
    return best_total, best_pair, program_fingerprint(pa)


def test_batched_tester_speedup_by_size(benchmark):
    """Scalar vs batched across size tiers, cold and warm memo, with
    byte-identical fingerprints everywhere and the >= 3x acceptance
    gate on the 40-routine cold path."""

    def measure():
        rows = []
        for k in SIZES:
            sf = parse_and_bind(generate_program(n_routines=k))
            # Warm the parser/summary caches out of the measurement.
            _with_hot_path(
                True, True, True,
                lambda: analyze_program(sf, FeatureSet()),
            )
            row = {"routines": k}
            for mode, memo in (("cold", False), ("warm", True)):
                ts, ps, fs = _timed_analysis(sf, batch=False, memo=memo)
                tb, pb, fb = _timed_analysis(sf, batch=True, memo=memo)
                assert fb == fs, (k, mode)
                row[mode] = {
                    "scalar_total_s": ts,
                    "batched_total_s": tb,
                    "scalar_pair_s": ps,
                    "batched_pair_s": pb,
                    "end_to_end_speedup": ts / max(tb, 1e-9),
                    "pair_stage_speedup": ps / max(pb, 1e-9),
                    "fingerprints_identical": True,
                }
            rows.append(row)
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1, warmup_rounds=0)

    accept = next(r for r in rows if r["routines"] == ACCEPT_SIZE)
    _merge_artifact(
        "size_tiers",
        {
            "rounds_best_of": ROUNDS,
            "tiers": rows,
            "acceptance": {
                "routines": ACCEPT_SIZE,
                "end_to_end_speedup_cold": accept["cold"][
                    "end_to_end_speedup"
                ],
                "pair_stage_speedup_cold": accept["cold"][
                    "pair_stage_speedup"
                ],
                "end_to_end_speedup_warm": accept["warm"][
                    "end_to_end_speedup"
                ],
                "pair_stage_speedup_warm": accept["warm"][
                    "pair_stage_speedup"
                ],
            },
        },
    )
    # Acceptance: >= 3x end to end on the 40-routine suite against the
    # scalar tester (cold path — every pair actually tested).
    assert accept["cold"]["end_to_end_speedup"] >= 3.0, accept
    # The warm path must never regress behind scalar.
    assert accept["warm"]["end_to_end_speedup"] >= 1.0, accept


def test_batched_fingerprints_across_execution_modes(benchmark):
    """Serial, --jobs 2 and a 2-shard fleet must all produce the same
    bytes with batching on (default hot path)."""

    source = generate_program(n_routines=ACCEPT_SIZE)

    # Serial vs worker-pool engines on the 40-routine program.
    serial_engine = AnalysisEngine()
    pool = WorkerPool(2, stats=EngineStats())
    jobs_engine = AnalysisEngine(pool=pool)
    try:
        _, pa_serial = serial_engine.analyze(source)
        _, pa_jobs = benchmark.pedantic(
            jobs_engine.analyze, args=(source,),
            rounds=1, iterations=1, warmup_rounds=0,
        )
        fp_serial = program_fingerprint(pa_serial)
        fp_jobs = program_fingerprint(pa_jobs)
    finally:
        pool.close()
    assert fp_jobs == fp_serial

    # The same corpus through a single host and a routed 2-shard fleet,
    # under names that put two programs on each shard.
    shards, addrs = [], []
    for _ in range(2):
        shard = PedServer(max_workers=4)
        transport = AsyncTransport(shard)
        addrs.append(f"127.0.0.1:{transport.start_background()}")
        shards.append((shard, transport))
    router = FleetRouter(addrs, retries=1)
    rtransport = AsyncTransport(router)
    rport = rtransport.start_background()
    try:
        names = names_owned_by(router.ring, addrs[0], 2)
        names += names_owned_by(router.ring, addrs[1], 2)
        sources = [source] + [
            generate_program(n_routines=3 + i, n_fields=2, grid=8)
            for i in range(3)
        ]
        programs = list(zip(names, sources))
        runner = CorpusRunner(features=FeatureSet(), stats=EngineStats())
        local = runner.submit(programs)
        runner.run(local)
        local_digests = {
            r["program"]: r["digest"] for r in local.result_records()
        }
        with PedClient.connect(port=rport) as client:
            reply = client.corpus_submit(programs, wait=True)
            assert reply["complete"] and reply["errors"] == 0, reply
            assert len(reply["shards"]) == 2, reply
            records = client.request(
                "corpus.results", job=reply["job"], wait=120
            )["records"]
        fleet_digests = {r["program"]: r["digest"] for r in records}
    finally:
        rtransport.stop_background()
        router.close()
        for shard, transport in shards:
            transport.stop_background()
            shard.close()
    assert fleet_digests == local_digests

    _merge_artifact(
        "execution_modes",
        {
            "routines": ACCEPT_SIZE,
            "serial_fingerprint": fp_serial,
            "jobs2_identical": fp_jobs == fp_serial,
            "fleet_shards": 2,
            "fleet_digests_identical": fleet_digests == local_digests,
        },
    )


def test_m1_stats_bit_identical_with_and_without_memo(benchmark):
    """The M1 tier statistics the paper's tables are built from must
    not move when the memo (or the batch executor) is toggled."""

    def stats_for(batch, memo):
        return _with_hot_path(
            batch, memo, memo,
            lambda: asdict(dependence_test_stats(["spec77", "onedim"])),
        )

    reference = benchmark.pedantic(
        stats_for, args=(False, False),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    variants = {
        "batched_no_memo": stats_for(True, False),
        "batched_memo": stats_for(True, True),
        "scalar_memo": stats_for(False, True),
    }
    for name, got in variants.items():
        assert got == reference, name
    _merge_artifact(
        "m1_stats",
        {
            "programs": ["spec77", "onedim"],
            "bit_identical_across_modes": True,
            "modes": ["scalar_no_memo"] + sorted(variants),
        },
    )


WIRE_SOURCE = """      subroutine p(a, n)
      integer n, i
      real a(100)
      do 10 i = 1, n
         a(i) = a(i) + 1.0
 10   continue
      end
"""


def test_binary_frames_transfer_fewer_bytes(benchmark):
    """A streamed edit session over binary delta frames moves fewer
    bytes than the identical session over JSON lines."""

    srv = PedServer(max_workers=2)
    transport = AsyncTransport(srv)
    port = transport.start_background()

    def run_session(binary: bool):
        with PedClient.connect(port=port) as c:
            if binary:
                assert c.negotiate_frames() is True
            sid = f"wire{int(binary)}"
            c.request("open", session=sid, source=WIRE_SOURCE)
            for i in range(8):
                c.request(
                    "edit", session=sid, start=4, end=4,
                    text=f"         a(i) = a(i) + {i}.0",
                )
                c.request("loops", session=sid, unit="p")
                c.request("deps", session=sid, unit="p")
                c.request("source", session=sid)
            return c.bytes_received, c.bytes_sent

    try:
        json_in, json_out = run_session(binary=False)
        bin_in, bin_out = benchmark.pedantic(
            run_session, args=(True,),
            rounds=1, iterations=1, warmup_rounds=0,
        )
    finally:
        transport.stop_background()
        srv.close()

    assert bin_in < json_in, (bin_in, json_in)
    _merge_artifact(
        "wire",
        {
            "session": "open + 8x(edit, loops, deps, source)",
            "json_bytes_received": json_in,
            "json_bytes_sent": json_out,
            "binary_bytes_received": bin_in,
            "binary_bytes_sent": bin_out,
            "bytes_ratio_json_over_binary": json_in / max(bin_in, 1),
        },
    )
