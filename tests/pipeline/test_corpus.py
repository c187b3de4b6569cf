"""Corpus batch analysis and aggregate-node rollups.

The satellite parity rule: every fleet-wide aggregate must equal the
serial sum of the per-program results — rollups are pure and order-
insensitive by construction, and these tests hold them to it.  A batch
run on the process pool must give the serial runner's records and
progress, also when the pool's workers die mid-batch.
"""

import logging
import multiprocessing
import os
import signal
import time

import pytest

from repro.incremental.stats import EngineStats
from repro.pipeline import CorpusError, CorpusRunner, analyze_program_result
from repro.pipeline.aggregate import aggregate_key, run_aggregate
from repro.pipeline.corpus import obstacle_category
from repro.service.pool import SerialPool, WorkerPool, make_pool
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

PROGRAMS = [
    (f"gen{i}", generate_program(n_routines=2, n_fields=2, grid=8, steps=2 + i))
    for i in range(3)
]


def records_for(programs):
    return [
        analyze_program_result({"name": name, "source": source})
        for name, source in programs
    ]


class TestProgramTask:
    def test_record_shape(self):
        rec = analyze_program_result(
            {"name": "p", "source": PROGRAMS[0][1]}
        )
        assert rec["program"] == "p"
        assert rec["error"] is None
        assert rec["digest"]
        assert rec["units"] > 0
        assert rec["loops"] >= rec["parallel_loops"] >= 0
        assert isinstance(rec["obstacles"], dict)
        assert isinstance(rec["tiers"], dict)
        assert isinstance(rec["transforms"], dict)

    def test_broken_program_becomes_error_record(self):
        rec = analyze_program_result(
            {"name": "bad", "source": "      this is not fortran\n"}
        )
        assert rec["program"] == "bad"
        assert rec["error"]
        assert rec["digest"] == ""

    def test_suite_program_runs(self):
        prog = next(iter(SUITE.values()))
        rec = analyze_program_result(
            {"name": prog.name, "source": prog.source}
        )
        assert rec["error"] is None

    def test_obstacle_category_strips_per_loop_detail(self):
        assert (
            obstacle_category(
                "loop-carried flow dependence on x (<,=) [pending]"
            )
            == "loop-carried flow dependence"
        )
        assert (
            obstacle_category("I/O statement at line 12")
            == "I/O statement"
        )


class TestAggregateParity:
    """Corpus aggregates == per-program results summed serially."""

    def test_summary_equals_serial_sums(self):
        records = records_for(PROGRAMS)
        value = run_aggregate("summary", records)
        assert value["programs"] == len(records)
        assert value["loops"] == sum(r["loops"] for r in records)
        assert value["parallel_loops"] == sum(
            r["parallel_loops"] for r in records
        )
        assert value["units"] == sum(r["units"] for r in records)

    @pytest.mark.parametrize(
        "name,field",
        [
            ("obstacles", "obstacles"),
            ("tiers", "tiers"),
            ("transforms", "transforms"),
        ],
    )
    def test_histograms_equal_serial_sums(self, name, field):
        records = records_for(PROGRAMS)
        value = run_aggregate(name, records)
        expect = {}
        for rec in records:
            for key, n in rec[field].items():
                expect[key] = expect.get(key, 0) + n
        assert value[field] == expect

    def test_rollups_are_order_insensitive(self):
        records = records_for(PROGRAMS)
        for name in ("summary", "obstacles", "tiers", "transforms"):
            assert run_aggregate(name, records) == run_aggregate(
                name, list(reversed(records))
            )
        assert aggregate_key(records) == aggregate_key(
            list(reversed(records))
        )

    def test_ranked_rows_are_most_frequent_first(self):
        value = run_aggregate("obstacles", records_for(PROGRAMS))
        counts = [row["loops"] for row in value["ranked"]]
        assert counts == sorted(counts, reverse=True)
        if value["ranked"]:
            assert value["top"] == value["ranked"][0]["obstacle"]


class TestCorpusRunner:
    def test_run_produces_done_snapshot(self):
        runner = CorpusRunner()
        job = runner.submit(PROGRAMS)
        snapshot = runner.run(job)
        assert snapshot["complete"] is True
        assert snapshot["done"] == snapshot["total"] == len(PROGRAMS)
        assert snapshot["errors"] == 0

    def test_progress_fires_once_per_program(self):
        runner = CorpusRunner()
        job = runner.submit(PROGRAMS)
        seen = []
        runner.run(job, progress=seen.append)
        assert [r["program"] for r in seen] == [n for n, _ in PROGRAMS]
        assert all(r["phase"] == "corpus.program" for r in seen)
        assert [r["done"] for r in seen] == list(
            range(1, len(PROGRAMS) + 1)
        )

    def test_matches_direct_task_records(self):
        runner = CorpusRunner()
        job = runner.submit(PROGRAMS)
        runner.run(job)
        direct = {r["program"]: r for r in records_for(PROGRAMS)}
        for rec in job.result_records():
            assert rec == direct[rec["program"]]

    def test_query_caches_until_results_change(self):
        runner = CorpusRunner()
        job = runner.submit(PROGRAMS)
        runner.run(job)
        value1, cached1 = runner.query(job, "summary")
        value2, cached2 = runner.query(job, "summary")
        assert (cached1, cached2) == (False, True)
        assert value1 == value2
        assert runner.stats is None  # no stats attached by default

    def test_resubmitting_a_program_invalidates_aggregates(self):
        runner = CorpusRunner()
        job = runner.submit(PROGRAMS)
        runner.run(job)
        runner.query(job, "summary")
        # New source under an existing name → new digest → new agg key.
        runner.submit(
            [("gen0", generate_program(n_routines=3, n_fields=2, grid=8, steps=5))],
            job=job.id,
        )
        runner.run(job)
        _value, cached = runner.query(job, "summary")
        assert cached is False

    def test_error_program_is_counted_not_fatal(self):
        runner = CorpusRunner()
        job = runner.submit(
            PROGRAMS[:1] + [("bad", "      garbage that will not parse\n")]
        )
        snapshot = runner.run(job)
        assert snapshot["complete"] is True
        assert snapshot["errors"] == 1
        value, _ = runner.query(job, "summary")
        # Error records are excluded from rollups (digestless).
        assert value["programs"] == 1

    def test_empty_submit_raises(self):
        with pytest.raises(CorpusError):
            CorpusRunner().submit([])

    def test_unknown_job_raises(self):
        with pytest.raises(CorpusError, match="no corpus job"):
            CorpusRunner().get("nope")

    def test_unknown_aggregate_raises(self):
        runner = CorpusRunner()
        job = runner.submit(PROGRAMS[:1])
        runner.run(job)
        with pytest.raises(CorpusError, match="unknown aggregate"):
            runner.query(job, "nope")


#: Seven generated programs, then one the front end rejects: two chunks
#: of four on a 2-worker pool, with the error record in the second.
POOL_BATCH = [
    (
        f"p{i}",
        generate_program(
            n_routines=2 + i % 3, n_fields=2, grid=8, steps=2 + i % 4
        ),
    )
    for i in range(7)
] + [
    (
        "broken",
        "      program p\n      do 10 i =\n 10   continue\n      end\n",
    )
]


def run_batch(pool, on_progress=None):
    """``(result records, [(done, total), ...])`` of one batch run."""

    runner = CorpusRunner(pool=pool)
    job = runner.submit(POOL_BATCH)
    seen = []

    def progress(record):
        seen.append((record["done"], record["total"]))
        if on_progress is not None:
            on_progress(record)

    runner.run(job, progress=progress)
    return job.result_records(), seen


@pytest.fixture(scope="module")
def serial_batch():
    return run_batch(SerialPool())


class TestCorpusPool:
    def test_make_pool_selects_backend(self):
        assert isinstance(make_pool(1), SerialPool)
        assert isinstance(make_pool(None), SerialPool)
        four = make_pool(4)
        assert type(four) is WorkerPool and four.jobs == 4
        four.close()

    def test_worker_pool_never_forks(self):
        """The pool lives in a threaded server, where a forked child
        can inherit a lock another thread holds."""

        methods = multiprocessing.get_all_start_methods()
        expected = "forkserver" if "forkserver" in methods else "spawn"
        with WorkerPool(2) as pool:
            context = pool._ensure_executor()._mp_context
            assert context.get_start_method() == expected

    def test_worker_pool_matches_serial(self, serial_batch):
        records, progress = serial_batch
        assert records[-1]["program"] == "broken"
        assert "unexpected end of statement" in records[-1]["error"]
        stats = EngineStats()
        with WorkerPool(2, stats=stats) as pool:
            assert run_batch(pool) == (records, progress)
        assert stats.counter("pool.tasks") == len(POOL_BATCH)
        assert stats.counter("pool.broken") == 0

    def test_killed_workers_finish_inline(self, serial_batch, caplog):
        stats = EngineStats()
        pool = WorkerPool(2, stats=stats)

        def kill_workers(record):
            if record["done"] != 4:
                return
            workers = list(pool._executor._processes.values())
            assert workers
            for proc in workers:
                os.kill(proc.pid, signal.SIGKILL)
            # The executor's management thread reaps these processes
            # too; when it wins ``waitpid``, ``join`` returns before the
            # exit code is recorded, so wait for the exit code itself.
            deadline = time.monotonic() + 30
            for proc in workers:
                while proc.exitcode is None:
                    assert time.monotonic() < deadline, "worker survived"
                    time.sleep(0.01)

        with caplog.at_level(logging.WARNING, logger="repro.service.pool"):
            with pool:
                result = run_batch(pool, on_progress=kill_workers)
        assert result == serial_batch
        assert stats.counter("pool.broken") == 1
        warnings = [
            r for r in caplog.records if r.name == "repro.service.pool"
        ]
        assert len(warnings) == 1
        assert "falling back to inline" in warnings[0].getMessage()
