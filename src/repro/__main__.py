"""Command-line entry points.

``python -m repro ped FILE.f``      — interactive Ped session (REPL)
``python -m repro analyze FILE.f``  — print loops + verdicts + deps
``python -m repro auto FILE.f``     — best-effort automatic parallelizer
``python -m repro serve``           — Ped session server (stdio or TCP)
``python -m repro corpus analyze``  — batch-analyze many files, rollups
``python -m repro corpus submit``   — submit a corpus batch to a server
``python -m repro corpus status``   — poll a server-side corpus job
``python -m repro corpus query``    — fleet-wide aggregate from a server
``python -m repro fleet shard``     — one shard server (serve, ephemeral port)
``python -m repro fleet route``     — shard router over a consistent ring
``python -m repro stats``           — merged metrics from a server/router
``python -m repro journal NAME``    — page a session's mutation journal
``python -m repro replay NAME``     — replay/restore a session's journal
``python -m repro tables``          — regenerate the evaluation tables
``python -m repro suite NAME``      — dump a suite program's source

``ped``, ``analyze``, ``auto``, ``serve`` and ``fleet shard`` take
``--cache-dir PATH`` (persist analysis results so reopening a file
starts warm; default off, the classic in-memory pipeline).  ``serve``,
``fleet shard`` and ``corpus analyze`` take ``--jobs N``: corpus
programs are analyzed on N worker processes (default 1, inline).  A
session always analyzes its own edits inline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _read(path: str) -> str:
    return Path(path).read_text()


def _engine(args: argparse.Namespace, features=None):
    """An engine honouring the ``--cache-dir`` and ``--profile`` flags."""

    from .service import build_engine

    if args.profile:
        # ``--profile`` also times the dependence tester per tier; the
        # timings surface as ``tier.<name>_s`` counters in the stats
        # table.
        from .dependence import driver

        driver.PROFILE_TIERS = True
    return build_engine(features=features, cache_dir=args.cache_dir)


def cmd_ped(args: argparse.Namespace) -> int:
    from .editor import CommandInterpreter, PedSession

    source = _read(args.file)
    session = PedSession(source, engine=_engine(args))
    ped = CommandInterpreter(session)
    print(f"ParaScope Editor — {args.file}")
    print("type 'help' for commands, 'show' for the window, ctrl-D to quit")
    print(ped.execute("loops"))
    while True:
        try:
            line = input("ped> ")
        except EOFError:
            print()
            break
        except KeyboardInterrupt:
            print()
            break
        if line.strip() in ("quit", "exit"):
            break
        out = ped.execute(line)
        if out:
            print(out)
    if args.output:
        Path(args.output).write_text(session.source)
        print(f"wrote {args.output}")
    if args.profile:
        print(session.engine.stats.render())
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .core import analyze
    from .interproc import FeatureSet

    features = FeatureSet.minimal() if args.minimal else FeatureSet()
    engine = _engine(args, features=features)
    pa = analyze(_read(args.file), features, engine=engine)
    for name, ua in sorted(pa.units.items()):
        print(f"{name} ({ua.unit.kind}): {len(ua.loops)} loop(s)")
        for idx, nest in enumerate(ua.loops):
            info = ua.info_for(nest.loop)
            indent = "  " * nest.depth
            verdict = "parallelizable" if info.parallelizable else "serial"
            print(
                f"  [{idx}]{indent}do {nest.loop.var} (line {nest.loop.line}): "
                f"{verdict}"
            )
            if args.verbose:
                for o in info.obstacles:
                    print(f"        - {o}")
    print(
        f"\n{pa.parallel_loop_count()}/{pa.loop_count()} loops parallelizable "
        f"({'minimal' if args.minimal else 'full'} analysis)"
    )
    if args.profile:
        print()
        print(engine.stats.render())
    return 0


def cmd_auto(args: argparse.Namespace) -> int:
    from .core import parallelize_program

    engine = _engine(args)
    result = parallelize_program(
        _read(args.file), require_profitable=not args.eager, engine=engine
    )
    for unit, idx in result.parallelized:
        print(f"parallelized: {unit} loop[{idx}]")
    for (unit, idx), reason in sorted(result.skipped.items()):
        print(f"skipped: {unit} loop[{idx}] — {reason}")
    if args.output:
        Path(args.output).write_text(result.source)
        print(f"wrote {args.output}")
    else:
        print()
        print(result.source)
    if args.profile:
        print(engine.stats.render())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """A session server on stdio or TCP (``fleet shard`` is this too)."""

    from .fleet import serve_async_stdio, serve_async_tcp
    from .service import MAX_REQUEST_BYTES, PedServer

    server = PedServer(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        max_workers=args.workers,
        max_request_bytes=args.max_request_bytes or MAX_REQUEST_BYTES,
    )
    try:
        if args.stdio:
            serve_async_stdio(server)
        else:
            serve_async_tcp(server, bind=args.host, port=args.port)
    finally:
        server.close()
    return 0


def _corpus_programs(args: argparse.Namespace):
    """``(name, source)`` pairs from ``FILES`` and/or ``--generate N``."""

    programs = []
    for path in args.files or ():
        programs.append((Path(path).stem, _read(path)))
    if getattr(args, "generate", 0):
        from .workloads.generator import generate_program

        for i in range(args.generate):
            programs.append(
                (
                    f"gen{i:03d}",
                    generate_program(
                        n_routines=2 + i % 3,
                        n_fields=2 + i % 2,
                        grid=8 + 4 * (i % 3),
                        steps=2 + i % 4,
                    ),
                )
            )
    if not programs:
        raise SystemExit("corpus: no programs (give FILES or --generate N)")
    return programs


def _print_rollups(query) -> None:
    """Render the standard rollups; ``query(name) -> value dict``."""

    summary = query("summary")
    print(
        f"{summary['programs']} program(s), {summary['errors']} error(s), "
        f"{summary['units']} unit(s), "
        f"{summary['parallel_loops']}/{summary['loops']} loops "
        f"parallelizable ({summary['parallel_fraction']:.0%})"
    )
    obstacles = query("obstacles")
    if obstacles["ranked"]:
        print("\ntop obstacles (loops blocked, fleet-wide):")
        for row in obstacles["ranked"][:8]:
            print(f"  {row['loops']:>5}  {row['obstacle']}")
    tiers = query("tiers")
    if tiers["tiers"]:
        print(f"\ndependence-test tiers ({tiers['pairs']} pairs):")
        for tier, n in sorted(tiers["tiers"].items(), key=lambda kv: -kv[1]):
            print(f"  {n:>5}  {tier}")
    transforms = query("transforms")
    if transforms["ranked"]:
        print("\ntransformation applicability (loops):")
        for row in transforms["ranked"]:
            print(f"  {row['loops']:>5}  {row['transform']}")


def cmd_corpus_analyze(args: argparse.Namespace) -> int:
    """Local corpus batch: analyze every program, print the rollups."""

    import json

    from .incremental.stats import EngineStats
    from .interproc import FeatureSet
    from .pipeline import CorpusRunner
    from .service import make_pool

    programs = _corpus_programs(args)
    features = FeatureSet.minimal() if args.minimal else FeatureSet()
    stats = EngineStats()
    pool = make_pool(args.jobs, stats=stats)
    runner = CorpusRunner(pool=pool, features=features, stats=stats)
    try:
        job = runner.submit(programs)

        def progress(record):
            if args.verbose:
                print(
                    f"[{record['done']}/{record['total']}] "
                    f"{record['program']}: {record['status']}"
                )

        runner.run(job, progress=progress)
        _print_rollups(lambda name: runner.query(job, name)[0])
        if args.json:
            payload = {
                "programs": job.result_records(),
                "aggregates": {
                    name: runner.query(job, name)[0]
                    for name in ("summary", "obstacles", "tiers", "transforms")
                },
            }
            Path(args.json).write_text(json.dumps(payload, indent=2))
            print(f"\nwrote {args.json}")
    finally:
        pool.close()
    return 0


def _corpus_client(args: argparse.Namespace):
    from .service import PedClient

    client = PedClient.connect(host=args.host, port=args.port)
    # A server that refuses deflate leaves the connection on JSON lines.
    client.negotiate_compression()
    return client


def cmd_corpus_submit(args: argparse.Namespace) -> int:
    import json

    programs = _corpus_programs(args)
    with _corpus_client(args) as client:
        result = client.corpus_submit(
            programs, job=args.job, wait=args.wait
        )
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_corpus_status(args: argparse.Namespace) -> int:
    import json

    with _corpus_client(args) as client:
        print(
            json.dumps(
                client.corpus_status(args.job), indent=2, sort_keys=True
            )
        )
    return 0


def cmd_corpus_query(args: argparse.Namespace) -> int:
    import json

    with _corpus_client(args) as client:
        result = client.corpus_query(args.job, args.aggregate)
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_fleet_route(args: argparse.Namespace) -> int:
    """The shard router: one front end over ``--shard`` servers."""

    from .fleet import FleetRouter, serve_async_tcp

    router = FleetRouter(
        args.shard,
        retries=args.retries,
        backoff=args.backoff,
    )
    try:
        serve_async_tcp(router, bind=args.host, port=args.port)
    finally:
        router.close()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Merged metrics from a running server or router."""

    import json

    with _corpus_client(args) as client:
        metrics = client.request("metrics")["metrics"]
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
        return 0
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, float):
            print(f"{name:<40} {value:.3f}")
        else:
            print(f"{name:<40} {value}")
    return 0


def cmd_journal(args: argparse.Namespace) -> int:
    """Page through a session's mutation journal on a server/router."""

    import json

    with _corpus_client(args) as client:
        page = client.session_log(
            args.session, start=args.start, count=args.count
        )
    if args.json:
        print(json.dumps(page, indent=2, sort_keys=True))
        return 0
    print(
        f"session {page['session']} ({page['origin']}): "
        f"{page['total']} record(s), showing "
        f"{page['start']}..{page['start'] + page['count']}"
    )
    for offset, record in enumerate(page["records"]):
        arg_text = " ".join(
            f"{k}={v!r}" for k, v in sorted(record.get("args", {}).items())
        )
        print(f"  [{page['start'] + offset:>4}] {record['op']:<10} {arg_text}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a session's journal server-side (or restore it live)."""

    import json

    with _corpus_client(args) as client:
        if args.restore:
            result = client.session_restore(
                args.session, replace=args.replace
            )
        else:
            result = client.session_replay(args.session, upto=args.upto)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    verb = "restored" if args.restore else "replayed"
    print(
        f"{verb} session {result['session']}: "
        f"{result['records']} record(s), "
        f"fingerprint {result['fingerprint'][:16]}…, "
        f"units: {', '.join(result['units'])}"
    )
    if "undo_depth" in result:
        print(f"undo depth {result['undo_depth']}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from .evaluation.tables import render_table1, render_table2, render_table3

    print("Table 1 — the program suite")
    print(render_table1())
    print()
    print("Table 2 — user actions and parallelization outcomes")
    print(render_table2())
    print()
    print("Table 3 — analysis contribution per program")
    print(render_table3())
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from .workloads import SUITE, get_program

    if not args.name:
        for prog in SUITE.values():
            print(f"{prog.name:<10} {prog.domain:<32} {prog.lines:>4} lines")
        return 0
    prog = get_program(args.name)
    print(prog.source)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    profile_help = "print incremental-engine stage timers and cache stats"

    def cache_flag(p):
        p.add_argument(
            "--cache-dir",
            metavar="PATH",
            help="persist analysis results under PATH for warm starts",
        )

    def jobs_flag(p):
        p.add_argument(
            "-j",
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="analyze corpus programs on N worker processes",
        )

    p = sub.add_parser("ped", help="interactive Ped session over a file")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the edited source on exit")
    p.add_argument("--profile", action="store_true", help=profile_help)
    cache_flag(p)
    p.set_defaults(fn=cmd_ped)

    p = sub.add_parser("analyze", help="loop verdicts for a file")
    p.add_argument("file")
    p.add_argument("--minimal", action="store_true", help="baseline analysis")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("--profile", action="store_true", help=profile_help)
    cache_flag(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("auto", help="automatic best-effort parallelizer")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--eager", action="store_true", help="ignore profitability")
    p.add_argument("--profile", action="store_true", help=profile_help)
    cache_flag(p)
    p.set_defaults(fn=cmd_auto)

    def server_flags(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7077)
        p.add_argument(
            "--workers",
            type=int,
            default=8,
            help="max concurrently handled requests (default 8)",
        )
        p.add_argument(
            "--max-request-bytes",
            type=int,
            default=None,
            metavar="N",
            help=(
                "reject request lines over N bytes with a structured "
                "payload-too-large error (default 4 MiB)"
            ),
        )
        cache_flag(p)
        jobs_flag(p)

    p = sub.add_parser(
        "serve", help="Ped session server (JSON-lines protocol)"
    )
    p.add_argument(
        "--stdio",
        action="store_true",
        help="serve one client on stdin/stdout instead of TCP",
    )
    server_flags(p)
    p.set_defaults(fn=cmd_serve)

    corpus = sub.add_parser(
        "corpus", help="corpus-scale batch analysis and rollups"
    )
    csub = corpus.add_subparsers(dest="corpus_command", required=True)

    def remote_flags(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7077)

    p = csub.add_parser(
        "analyze", help="batch-analyze files locally, print rollups"
    )
    p.add_argument("files", nargs="*", metavar="FILE")
    p.add_argument(
        "--generate",
        type=int,
        default=0,
        metavar="N",
        help="add N synthetic workload programs to the corpus",
    )
    p.add_argument("--minimal", action="store_true", help="baseline analysis")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument(
        "--json", metavar="PATH", help="write records + rollups as JSON"
    )
    jobs_flag(p)
    p.set_defaults(fn=cmd_corpus_analyze)

    p = csub.add_parser(
        "submit", help="submit a corpus batch to a running server"
    )
    p.add_argument("files", nargs="*", metavar="FILE")
    p.add_argument("--generate", type=int, default=0, metavar="N")
    p.add_argument("--job", help="extend an existing job instead")
    p.add_argument(
        "--wait", action="store_true", help="block until the batch finishes"
    )
    remote_flags(p)
    p.set_defaults(fn=cmd_corpus_submit)

    p = csub.add_parser("status", help="poll a server-side corpus job")
    p.add_argument("job")
    remote_flags(p)
    p.set_defaults(fn=cmd_corpus_status)

    p = csub.add_parser(
        "query", help="fleet-wide aggregate rollup from a server"
    )
    p.add_argument("job")
    p.add_argument(
        "aggregate",
        choices=("summary", "obstacles", "tiers", "transforms"),
    )
    remote_flags(p)
    p.set_defaults(fn=cmd_corpus_query)

    fleet = sub.add_parser(
        "fleet", help="sharded serving: asyncio shards behind a router"
    )
    fsub = fleet.add_subparsers(dest="fleet_command", required=True)

    p = fsub.add_parser(
        "shard", help="one shard server (serve on an ephemeral port)"
    )
    server_flags(p)
    p.set_defaults(fn=cmd_serve, port=0, stdio=False)

    p = fsub.add_parser(
        "route", help="consistent-hash router over --shard servers"
    )
    p.add_argument(
        "--shard",
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="a shard server address (repeatable; at least one)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7070)
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        help="connect retries per shard before rehash (default 2)",
    )
    p.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="S",
        help="base retry backoff seconds, doubled per attempt",
    )
    p.set_defaults(fn=cmd_fleet_route)

    p = sub.add_parser(
        "stats", help="merged metrics from a running server or router"
    )
    p.add_argument("--json", action="store_true", help="raw JSON output")
    remote_flags(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "journal", help="page a session's mutation journal from a server"
    )
    p.add_argument("session", help="the session name")
    p.add_argument(
        "--start", type=int, default=0, help="first record index (default 0)"
    )
    p.add_argument(
        "--count", type=int, default=None, help="records per page (default all)"
    )
    p.add_argument("--json", action="store_true", help="raw JSON output")
    remote_flags(p)
    p.set_defaults(fn=cmd_journal)

    p = sub.add_parser(
        "replay",
        help="rebuild a session from its journal on a server "
        "(time travel with --upto, crash recovery with --restore)",
    )
    p.add_argument("session", help="the session name")
    p.add_argument(
        "--upto",
        type=int,
        default=None,
        metavar="N",
        help="replay only the first N records (default: all)",
    )
    p.add_argument(
        "--restore",
        action="store_true",
        help="re-register the replayed session live (crash recovery)",
    )
    p.add_argument(
        "--replace",
        action="store_true",
        help="with --restore: replace an already-open session",
    )
    p.add_argument("--json", action="store_true", help="raw JSON output")
    remote_flags(p)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("tables", help="regenerate the evaluation tables")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("suite", help="list/dump the synthetic suite")
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=cmd_suite)

    args = parser.parse_args(argv)
    from .fortran.errors import FortranError

    try:
        return args.fn(args)
    except FortranError as exc:
        if not hasattr(args, "file"):
            raise
        # A front-end diagnostic on the user's file is an answer, not
        # a crash: one line naming the file and position.
        print(f"repro: {args.file}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
