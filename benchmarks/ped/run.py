"""Ped benchmark: every workload, metric and answer check in one command.

    python3 benchmarks/ped/run.py --seed 1             # end-to-end metrics
    python3 benchmarks/ped/run.py --trace --seed 1     # per-layer metrics
    python3 benchmarks/ped/run.py --repeat 2 --seed 1  # repeatability
    python3 benchmarks/ped/run.py --workload edit_loop --seed 1 --seconds 20 --trace 0

Without ``--workload`` each workload runs in a child process of its own,
the results go to ``benchmarks/ped/out/results.json``, and the exit code
is non-zero if an answer was wrong (or, with ``--repeat``, if a metric
moved between sets by more than its bound in ``BENCHMARK.json``).  With
``--workload`` the workload runs in this process and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run it from the repository root; it needs
the sources under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOADS = ("paper_sessions", "edit_loop", "crash_restore", "corpus_cold")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="measured time per run (default: "
        "BENCHMARK.json run_seconds)"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer metrics of a traced run",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="run this many sets back to back and compare them",
    )
    return parser.parse_args(argv)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _pin_to_one_cpu() -> None:
    """Keep this process on one CPU.  The system under test and the
    load generator share one interpreter lock anyway; on one CPU a
    hand-off between their threads never waits for another (virtual)
    CPU to wake up, which makes runs repeat more closely."""

    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run_workload(args, spec) -> int:
    """One workload in this process; the result is the last line."""

    from metrics import measure

    _pin_to_one_cpu()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    run, values = measure(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        out_dir=OUT,
    )
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise SystemExit(
            f"metrics {sorted(values)} do not match BENCHMARK.json {names}"
        )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    print(
        f"{args.workload:<15} {'(calibration, median)':<34} "
        f"{statistics.median(ms for _, ms in run.calibration):>14.6g} ms"
    )
    for name, m in metrics.items():
        print(f"{args.workload:<15} {name:<34} {m['value']:>14.6g} {m['unit']}")
    for problem in run.problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


def _child(args, workload):
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900
    )
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: exited {proc.returncode}")
    return json.loads(lines[-1])


def run_all(args, spec) -> int:
    """Every workload, each in its own child process, ``--repeat`` sets."""

    sets = []
    for _ in range(args.repeat):
        sets.append({w: _child(args, w) for w in WORKLOADS})
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(
        json.dumps(
            {
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "sets": sets,
            },
            indent=1,
        )
    )
    status = 0
    for w in WORKLOADS:
        for i, result in enumerate(sets):
            if not result[w]["correct"]:
                print(
                    f"{w}: set {i + 1}: {result[w]['failed']} of "
                    f"{result[w]['attempted']} operations failed"
                )
                status = 1
    if args.repeat > 1 and not args.trace:
        status |= _compare(spec, sets)
    return status


def _compare(spec, sets) -> int:
    """Print each end-to-end metric's value per set and the relative gap
    between the first and the last; 1 if a gap exceeds its bound."""

    status = 0
    print(f"\n{'workload':<15} {'metric':<24} {'set 1':>11} {'set n':>11} "
          f"{'gap':>7} {'bound':>6}")
    for w in WORKLOADS:
        for m in spec["end_to_end"]:
            first = sets[0][w]["metrics"][m["name"]]["value"]
            last = sets[-1][w]["metrics"][m["name"]]["value"]
            gap = (last - first) / first
            flag = ""
            if abs(gap) > m["bound"]:
                flag = "  exceeds bound"
                status = 1
            print(f"{w:<15} {m['name']:<24} {first:>11.4g} {last:>11.4g} "
                  f"{gap:>+7.1%} {m['bound']:>6.0%}{flag}")
    return status


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no Ped sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
