"""The Ped benchmark's four workloads.

Every workload is a closed loop over one client connection: the next
request leaves only after the previous reply arrived, the way a Ped
user waits for reanalysis before acting again.  The system under test
runs in this process (:class:`Rig`), so the load generator and every
layer share one interpreter lock.

A workload builds its rig three times (the median is ``setup_s``; the
warm-up actions are part of set-up), then drives a fixed number of
timed actions.  Inputs come only from the run's seed, through the
``*_plan`` generators, so two runs with one seed do the same work.
Every answer the system gives is checked against a known one while the
run goes on, and a wrong answer counts as a failed operation.
"""

from __future__ import annotations

import gc
import json
import queue
import random
import shutil
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.fleet.router import FleetRouter
from repro.fleet.transport import AsyncTransport
from repro.service.client import PedClient, PedRequestError
from repro.service.session_host import PedServer
from repro.workloads.generator import generate_program
from repro.workloads.suite import SUITE

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Seconds one request may take before it counts as failed.
TIMEOUT = 60.0
#: Seconds between two calibration samples taken between actions.
CALIBRATE_EVERY = 0.05


def calibration_work() -> int:
    """A fixed piece of pure-Python work, no I/O: about half dict
    updates, arithmetic and small strings, half allocating small
    tuples, lists and dicts.  Its time, taken between actions, tracks
    how fast this machine runs the analysis code at that moment: on a
    shared VM the speed changes for seconds at a time, and this mix
    slows down by the same factor as the analysis does, where pure
    arithmetic slows down more and allocation less."""

    table: Dict[int, int] = {}
    total = 0
    for i in range(1500):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + 1
        total += len(str(key)) + (key & 3)
    objects = [(i, [i] * 3, {"a": i}) for i in range(800)]
    return total + len(objects)


class Rig:
    """The system under test: ``shards`` session hosts (``jobs=1``),
    each behind its own asyncio transport, optionally a router in front
    of them, and one JSON-lines client connected to the front end."""

    def __init__(self, shards=1, routed=False, cache_dir=None, tracer=None):
        self._served: List[Tuple[object, AsyncTransport]] = []
        self.client: Optional[PedClient] = None
        try:
            for _ in range(shards):
                self._serve(PedServer(jobs=1, cache_dir=cache_dir), tracer)
            if routed:
                ports = [t.port for _, t in self._served]
                self._serve(
                    FleetRouter([f"127.0.0.1:{p}" for p in ports]), tracer
                )
            self.client = PedClient.connect(
                "127.0.0.1", self._served[-1][1].port
            )
        except BaseException:
            self.close()
            raise

    def _serve(self, host, tracer) -> None:
        transport = AsyncTransport(host)
        self._served.append((host, transport))
        transport.start_background()
        if tracer is not None:
            tracer.register_host(transport.port, host)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        for host, transport in reversed(self._served):
            transport.stop_background()
            host.close()


class Run:
    """One workload run: its seed and length, the timed samples, and the
    tally of attempted and failed operations.

    The measured phase ends at the first unit of work (a story, a
    recovery, ...) that finds ``actions`` timed actions done, or after
    ``time_cap`` seconds."""

    def __init__(
        self,
        seed: int,
        actions: int,
        time_cap: float,
        tracer=None,
    ) -> None:
        self.seed = seed
        self.actions = actions
        self.time_cap = time_cap
        self.tracer = tracer
        #: Where a workload may keep files (crash_restore's cache).
        self.scratch = HERE / "out" / "scratch"
        #: ``(start, end)`` of each build.
        self.builds: List[Tuple[float, float]] = []
        #: ``(kind, ms, traced, end)`` per timed action.
        self.samples: List[Tuple[str, float, bool, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Units of work done while measuring (stories, actions,
        #: recoveries or programs: see each workload).
        self.work = 0
        self.wire_bytes = 0
        #: The ``metrics`` op's counters at the end (traced runs only).
        self.counters: Dict[str, float] = {}
        #: ``(time, ms)`` per :func:`calibration_work` run: around each
        #: build, and between actions.
        self.calibration: List[Tuple[float, float]] = []
        self._calibrated = 0.0
        self._started: Optional[float] = None
        #: Timed actions so far, by kind.
        self._kinds: Dict[str, int] = {}

    # -- phases --------------------------------------------------------

    def setup(self, build: Callable[[], object]):
        """Build the workload's state :data:`SETUPS` times, timing each
        build; close all but the last, and return it."""

        state = None
        for _ in range(SETUPS):
            if state is not None:
                state.close()
                # Free the old state before the next build, or whether a
                # collection happened to run first decides the peak RSS.
                gc.collect()
            self.calibrate(3)
            t0 = time.perf_counter()
            state = build()
            self.builds.append((t0, time.perf_counter()))
            self.calibrate(3)
        return state

    def start(self) -> None:
        self._started = time.perf_counter()

    def calibrate(self, times: int = 1) -> None:
        """Time :func:`calibration_work` while the system is idle."""

        # With the collector off, the work's allocations cannot start a
        # collection of the system's own heap inside the timing.
        gc.disable()
        try:
            for _ in range(times):
                t0 = time.perf_counter_ns()
                calibration_work()
                t1 = time.perf_counter_ns()
                self.calibration.append((t1 / 1e9, (t1 - t0) / 1e6))
        finally:
            gc.enable()
        self._calibrated = time.perf_counter()

    def more(self) -> bool:
        """Whether the measured phase goes on."""

        return (
            len(self.samples) < self.actions
            and time.perf_counter() - self._started < self.time_cap
        )

    # -- operations ----------------------------------------------------

    def call(self, client, kind: str, op: str, stream=False, **params):
        """One action: send ``op``, wait for its reply (after every
        event of a streamed request), and while measuring record its
        latency under ``kind`` ("write", "read" or "other").  Returns
        the result, or ``None`` if it failed.
        While tracing, every other timed action of each kind runs
        traced, so traced and untraced samples see the same mix."""

        measuring = self._started is not None
        traced = False
        if measuring:
            seen = self._kinds.get(kind, 0)
            self._kinds[kind] = seen + 1
            traced = self.tracer is not None and seen % 2 == 1
        before = client.bytes_sent + client.bytes_received
        result = None
        with self.tracer.action(op) if traced else nullcontext():
            t0 = time.perf_counter_ns()
            try:
                if stream:
                    for ev in client.stream(op, wait=TIMEOUT, **params):
                        if ev.kind == "result":
                            result = ev.data
                else:
                    result = client.request(op, wait=TIMEOUT, **params)
            except (PedRequestError, TimeoutError, queue.Empty) as exc:
                self._fail(f"{op}: {type(exc).__name__}: {exc}")
            t1 = time.perf_counter_ns()
        self.attempted += 1
        if measuring:
            self.samples.append((kind, (t1 - t0) / 1e6, traced, t1 / 1e9))
            self.wire_bytes += (
                client.bytes_sent + client.bytes_received - before
            )
        if time.perf_counter() - self._calibrated >= CALIBRATE_EVERY:
            self.calibrate()
        return result

    def ask(self, client, op: str, **params):
        """An untimed request made to check an answer."""

        self.attempted += 1
        try:
            return client.request(op, wait=TIMEOUT, **params)
        except (PedRequestError, TimeoutError) as exc:
            self._fail(f"{op}: {type(exc).__name__}: {exc}")
            return None

    def check(self, result, ok: Callable[[Dict], bool], what: str) -> None:
        """Count the operation that returned ``result`` as failed when
        its answer is wrong (a failed operation was counted already)."""

        if result is not None and not ok(result):
            self._fail(what)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def snapshot(self, client, session: Optional[str] = None) -> None:
        """Keep the front end's ``metrics`` counters for the per-layer
        report, overlaid with ``session``'s own analysis counters."""

        server = self.ask(client, "metrics") or {}
        counters = dict(server.get("metrics") or {})
        if session is not None:
            own = self.ask(client, "metrics", session=session) or {}
            for key, value in (own.get("metrics") or {}).items():
                if key.startswith("node."):
                    counters[key] = value
        self.counters = counters


# -- inputs shared by several workloads --------------------------------


def stencil_line(c1: int, c2: int) -> str:
    """An ``upd<r>`` stencil statement, as the generator writes it."""

    return (
        f"         x(i) = x(i) + 0.0{c1} * (x(i+1) - x(i-1)) "
        f"- 0.00{c2} * x(i)"
    )


def generated_counts(n_routines: int, n_fields: int) -> Tuple[int, int]:
    """``(parallel loops, loops)`` of ``generate_program(n_routines,
    n_fields)``, by the generator's construction rule: every loop is
    parallel except each ``upd<r>`` loop (it carries ``x(i-1)``) and the
    main program's time-step loop (every step rewrites the fields).
    The loops are two per field to initialize and two per field to
    checksum, the time-step loop, one driver loop per four routines and
    one per routine."""

    loops = 4 * n_fields + 1 + -(-n_routines // 4) + n_routines
    return loops - n_routines - 1, loops


class Stencils:
    """The client's model of a generated program's stencil constants,
    so every edit changes the source and undo/redo are always legal."""

    def __init__(self, source: str, n_routines: int) -> None:
        lines = source.splitlines()
        self.line = {}
        for r in range(n_routines):
            head = lines.index(f"      subroutine upd{r}(x, k)")
            self.line[r] = head + 5  # 1-based line of the stencil
        self.consts = {r: (1 + r % 7, 1 + r % 5) for r in range(n_routines)}
        self.done: List[Tuple[int, tuple, tuple]] = []
        self.undone: List[Tuple[int, tuple, tuple]] = []

    def edit(self, r: int, c1: int, c2: int) -> Dict:
        """The ``edit`` request for routine ``r``'s new constants."""

        if (c1, c2) == self.consts[r]:
            c1 = c1 % 9 + 1
        self.done.append((r, self.consts[r], (c1, c2)))
        self.undone.clear()
        self.consts[r] = (c1, c2)
        line = self.line[r]
        return {"start": line, "end": line, "text": stencil_line(c1, c2)}

    def undo_or_redo(self) -> Optional[str]:
        """``"redo"`` when an undo is pending, else ``"undo"`` when an
        edit is, else ``None``."""

        if self.undone:
            r, old, new = self.undone.pop()
            self.done.append((r, old, new))
            self.consts[r] = new
            return "redo"
        if self.done:
            r, old, new = self.done.pop()
            self.undone.append((r, old, new))
            self.consts[r] = old
            return "undo"
        return None


def edit_draw(rng: random.Random, n_routines: int) -> Tuple[int, int, int]:
    """A seeded edit step: a routine and two new stencil constants."""

    return rng.randrange(n_routines), rng.randint(1, 9), rng.randint(1, 9)


def edit(run: Run, client, session: str, model: Stencils, step) -> None:
    """One streamed stencil edit: ``step`` is ``(r, c1, c2)``."""

    run.call(
        client, "write", "edit", stream=True, session=session,
        **model.edit(*step),
    )


def check_rule(run: Run, client, session: str, n_routines: int) -> None:
    """The generator's construction rule against the live verdicts."""

    driver = run.ask(client, "loops", session=session, unit="driver")
    run.check(
        driver,
        lambda r: r["loops"] and all(x["parallelizable"] for x in r["loops"]),
        "a driver loop is not parallel",
    )
    scale = run.ask(client, "loops", session=session, unit="scale")
    run.check(
        scale,
        lambda r: [x["parallelizable"] for x in r["loops"] if x["var"] == "it"]
        == [False],
        "the time-step loop is not serial",
    )
    for r in range(n_routines):
        upd = run.ask(client, "loops", session=session, unit=f"upd{r}")
        run.check(
            upd,
            lambda x: [y["parallelizable"] for y in x["loops"]] == [False],
            f"the upd{r} loop is not serial",
        )


# -- paper_sessions ------------------------------------------------------


def _transform_args(rest: str) -> Tuple[str, Dict]:
    name, *pairs = rest.split()
    args = {}
    for pair in pairs:
        key, value = pair.split("=", 1)
        args[key] = int(value) if value.isdigit() else value
    return name, args


def story_ops(script: List[str]) -> List[Tuple[str, str, bool, Dict]]:
    """``(kind, op, streamed, params)`` for each line of a Table-2 user
    story, as a client of the session service sends it."""

    ops = []
    for line in script:
        cmd, _, rest = line.partition(" ")
        if cmd == "unit":
            ops.append(("read", "select", False, {"unit": rest}))
        elif cmd == "select":
            ops.append(("read", "select", False, {"loop": int(rest)}))
        elif cmd in ("loops", "vars"):
            ops.append(("read", "loops", False, {}))
        elif cmd == "deps":
            ops.append(("read", "deps", False, {}))
        elif cmd in ("advice", "apply"):
            name, args = _transform_args(rest)
            ops.append(
                ("read", "diagnose", False, {"transform": name, "args": args})
                if cmd == "advice"
                else ("write", "apply", True, {"transform": name, "args": args})
            )
        elif cmd == "assert":
            ops.append(("write", "assert", True, {"text": rest}))
        else:
            raise ValueError(f"no service op for story line {line!r}")
    return ops


def paper_plan(seed: int) -> Iterator[Tuple[str, str]]:
    """Endless ``(program, session name)``: passes over the ten stories,
    each pass in a seeded order, each session under a seeded name (the
    name picks the shard)."""

    rng = random.Random(seed)
    names = list(SUITE)
    while True:
        rng.shuffle(names)
        for name in names:
            yield name, f"{name}-{rng.getrandbits(32):08x}"


def _story(run: Run, client, program: str, session: str) -> None:
    prog = SUITE[program]
    run.call(
        client, "other", "open", stream=True, session=session,
        source=prog.source,
    )
    for kind, op, stream, params in story_ops(prog.script):
        run.call(client, kind, op, stream=stream, session=session, **params)
    summary = run.call(client, "read", "parallel_summary", session=session)
    want = EXPECTED["with_ped"][program]
    run.check(
        summary,
        lambda r: [
            sum(u["parallel"] for u in r["units"]),
            sum(u["loops"] for u in r["units"]),
        ]
        == want,
        f"{program}: parallel/total loops differ from Table 2's {want}",
    )
    run.call(client, "other", "close", session=session)


def paper_sessions(run: Run) -> None:
    """The ten Table-2 user stories, over and over, through a router in
    front of two shards.  ``work`` counts stories."""

    plan = paper_plan(run.seed)

    def build():
        rig = Rig(shards=2, routed=True, tracer=run.tracer)
        for _ in range(len(SUITE)):
            _story(run, rig.client, *next(plan))
        return rig

    rig = run.setup(build)
    try:
        run.start()
        while run.more():
            _story(run, rig.client, *next(plan))
            run.work += 1
        if run.tracer is not None:
            run.snapshot(rig.client)
    finally:
        rig.close()


# -- edit_loop -----------------------------------------------------------

EDIT_ROUTINES = 60
EDIT_WARMUP = 12
#: Measured actions between two checks of the construction rule.
CHECK_EVERY = 50
QUERIES = ("select", "loops", "deps", "diagnose")


def edit_plan(seed: int) -> Iterator[Tuple]:
    """Endless edit_loop steps in blocks of ten, each block in a seeded
    order: five ``("edit", r, c1, c2)``, one ``("undo-redo",)`` and one
    ``("query", op, unit)`` per query op."""

    rng = random.Random(seed)
    units = ["driver", "scale"] + [f"upd{r}" for r in range(EDIT_ROUTINES)]
    block = [("edit",)] * 5 + [("undo-redo",)] + [("query", q) for q in QUERIES]
    while True:
        rng.shuffle(block)
        for step in block:
            if step[0] == "edit":
                yield ("edit", *edit_draw(rng, EDIT_ROUTINES))
            elif step[0] == "query":
                yield ("query", step[1], rng.choice(units))
            else:
                yield step


def _edit_step(run: Run, client, model: Stencils, step) -> None:
    if step[0] == "undo-redo":
        op = model.undo_or_redo()
        if op is not None:
            run.call(client, "other", op, session="edit")
            return
        step = ("edit", 0, 1, 1)
    if step[0] == "edit":
        edit(run, client, "edit", model, step[1:])
        return
    _, op, unit = step
    params = {"unit": unit}
    if op != "loops":
        params["loop"] = 0
    if op == "diagnose":
        params["transform"] = "parallelize"
    run.call(client, "read", op, session="edit", **params)


def edit_loop(run: Run) -> None:
    """Seeded edits, undo/redo and queries on one ~650-line session,
    sent straight to one server.  ``work`` counts actions."""

    source = generate_program(n_routines=EDIT_ROUTINES)
    plan = edit_plan(run.seed)
    model = None

    def build():
        nonlocal model
        rig = Rig(tracer=run.tracer)
        model = Stencils(source, EDIT_ROUTINES)
        run.call(rig.client, "other", "open", session="edit", source=source)
        for _ in range(EDIT_WARMUP):
            _edit_step(run, rig.client, model, next(plan))
        return rig

    rig = run.setup(build)
    try:
        run.start()
        while run.more():
            _edit_step(run, rig.client, model, next(plan))
            run.work += 1
            if run.work % CHECK_EVERY == 0:
                check_rule(run, rig.client, "edit", EDIT_ROUTINES)
        check_rule(run, rig.client, "edit", EDIT_ROUTINES)
        if run.tracer is not None:
            run.snapshot(rig.client, session="edit")
    finally:
        rig.close()


# -- crash_restore -------------------------------------------------------

CRASH_ROUTINES = 30
RECORDED_SESSIONS = 2
RECORDED_EDITS = 8
RECOVERY_EDITS = 4


def crash_plan(seed: int):
    """``(recorded, recoveries)``: the edits each recorded session made
    before the crash, and an endless supply of each recovery's edits."""

    rng = random.Random(seed)
    recorded = [
        [edit_draw(rng, CRASH_ROUTINES) for _ in range(RECORDED_EDITS)]
        for _ in range(RECORDED_SESSIONS)
    ]

    def recoveries():
        while True:
            yield [
                edit_draw(rng, CRASH_ROUTINES) for _ in range(RECOVERY_EDITS)
            ]

    return recorded, recoveries()


class _Recorded:
    """A cache directory holding the recorded sessions' journals."""

    def __init__(self, cache: Path, fingerprints: Dict[str, str]) -> None:
        self.cache = cache
        self.fingerprints = fingerprints

    def close(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)


def _recover(run: Run, recorded: _Recorded, source: str, edits) -> None:
    """A new server over the crashed one's cache: restore the recorded
    sessions, reopen a scratch session warm, edit it durably, close it,
    and abandon the server."""

    rig = Rig(cache_dir=recorded.cache, tracer=run.tracer)
    try:
        for name, fingerprint in recorded.fingerprints.items():
            reply = run.call(
                rig.client, "read", "session.restore", stream=True,
                session=name,
            )
            run.check(
                reply,
                lambda r: r["fingerprint"] == fingerprint,
                f"restored {name} differs from the recorded fingerprint",
            )
        run.call(
            rig.client, "other", "open", stream=True, session="scratch",
            source=source,
        )
        model = Stencils(source, CRASH_ROUTINES)
        for step in edits:
            edit(run, rig.client, "scratch", model, step)
        run.call(rig.client, "other", "close", session="scratch")
        if run.tracer is not None:
            run.snapshot(rig.client, session=next(iter(recorded.fingerprints)))
    finally:
        rig.close()
        # A crashed server's memory goes with its process: free it now,
        # not whenever a collection happens to run.
        gc.collect()


def crash_restore(run: Run) -> None:
    """Recover from a crash over and over: each recovery starts a new
    server over the same recorded journals.  ``work`` counts
    recoveries."""

    source = generate_program(n_routines=CRASH_ROUTINES)
    recorded_edits, recoveries = crash_plan(run.seed)
    builds = iter(range(SETUPS))

    def build():
        cache = run.scratch / f"crash-{next(builds)}"
        shutil.rmtree(cache, ignore_errors=True)
        fingerprints = {}
        rig = Rig(cache_dir=cache, tracer=run.tracer)
        try:
            for k, edits in enumerate(recorded_edits):
                name = f"recorded{k}"
                run.call(
                    rig.client, "other", "open", session=name, source=source
                )
                model = Stencils(source, CRASH_ROUTINES)
                for step in edits:
                    edit(run, rig.client, name, model, step)
                reply = run.ask(rig.client, "fingerprint", session=name)
                fingerprints[name] = (reply or {}).get("fingerprint")
        finally:
            rig.close()
        recorded = _Recorded(cache, fingerprints)
        _recover(run, recorded, source, next(recoveries))
        return recorded

    recorded = run.setup(build)
    try:
        run.start()
        while run.more():
            _recover(run, recorded, source, next(recoveries))
            run.work += 1
    finally:
        recorded.close()


# -- corpus_cold ---------------------------------------------------------

#: ``n_routines`` ranges of the three generated programs in a batch.
CORPUS_SIZES = ((2, 8), (9, 20), (21, 40))


def corpus_batches() -> List[List[Tuple[int, int]]]:
    """The ten generated triples ``(n_routines, n_fields)`` every ten
    corpus batches hold: the k-th of ten sizes spread evenly over each
    range of :data:`CORPUS_SIZES`, with 1-3 fields in turn."""

    n = len(SUITE)
    return [
        [
            (lo + (hi - lo) * k // (n - 1), 1 + (k + s) % 3)
            for s, (lo, hi) in enumerate(CORPUS_SIZES)
        ]
        for k in range(n)
    ]


def corpus_plan(seed: int) -> Iterator[Tuple[List[Tuple[int, int]], str]]:
    """Endless corpus batches ``(generated, suite program)``: one small,
    one medium and one large generated program plus one suite program.
    Every ten batches hold the :func:`corpus_batches` triples and each
    suite program once, in a seeded order and pairing, so every seed
    does the same work and only its order changes."""

    rng = random.Random(seed)
    batches = corpus_batches()
    suite = list(SUITE)
    while True:
        rng.shuffle(batches)
        rng.shuffle(suite)
        yield from zip(batches, suite)


def _corpus_round(run: Run, client, index: int, batch) -> None:
    # The ring hashes the shards' (ephemeral) ports, so which shard a
    # name lands on changes from run to run; names that change from
    # batch to batch spread that over the whole run.
    generated, suite_name = batch
    job = f"round{index}"
    expected = {}
    programs = []
    for k, (n_routines, n_fields) in enumerate(generated):
        name = f"gen{k}-{index}"
        programs.append(
            {
                "name": name,
                "source": generate_program(
                    n_routines=n_routines, n_fields=n_fields
                ),
            }
        )
        expected[name] = list(generated_counts(n_routines, n_fields))
    name = f"{suite_name}-{index}"
    programs.append({"name": name, "source": SUITE[suite_name].source})
    expected[name] = EXPECTED["corpus_auto"][suite_name]
    submitted = run.call(
        client, "write", "corpus.submit", stream=True, job=job,
        programs=programs,
    )
    run.check(
        submitted,
        lambda r: r["done"] == len(programs) and not r["errors"],
        f"{job}: not every program was analyzed",
    )
    summary = run.call(
        client, "read", "corpus.query", job=job, aggregate="summary"
    )
    run.check(
        summary,
        lambda r: [r["value"]["parallel_loops"], r["value"]["loops"]]
        == [sum(x) for x in zip(*expected.values())],
        f"{job}: summary totals differ from the known ones",
    )
    results = run.ask(client, "corpus.results", job=job)
    run.check(
        results,
        lambda r: {
            rec["program"]: [rec.get("parallel_loops"), rec.get("loops")]
            for rec in r["records"]
        }
        == expected,
        f"{job}: a program's parallel/total loops differ from the known ones",
    )


def corpus_cold(run: Run) -> None:
    """Streamed corpus batches through a router over two shards, each
    followed by a summary query.  Each program is analyzed by a fresh
    engine, so no analysis state carries over between batches.
    ``work`` counts programs."""

    plan = corpus_plan(run.seed)
    rounds = iter(range(1 << 30))

    def build():
        rig = Rig(shards=2, routed=True, tracer=run.tracer)
        _corpus_round(run, rig.client, next(rounds), next(plan))
        return rig

    rig = run.setup(build)
    try:
        run.start()
        while run.more():
            batch = next(plan)
            _corpus_round(run, rig.client, next(rounds), batch)
            run.work += len(batch[0]) + 1
        if run.tracer is not None:
            run.snapshot(rig.client)
    finally:
        rig.close()


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "paper_sessions": paper_sessions,
    "edit_loop": edit_loop,
    "crash_restore": crash_restore,
    "corpus_cold": corpus_cold,
}

#: Timed actions per second of each workload's measured phase, on one
#: CPU of a 2-vCPU x86-64 VM at the commit that added the benchmark: a
#: run of ``--seconds S`` does ``S * rate`` actions, so it lasts about
#: S seconds there, and every commit measured does the same work.
RATES = {
    "paper_sessions": 200,
    "edit_loop": 25,
    "crash_restore": 13,
    "corpus_cold": 10,
}

#: Each workload's seeded inputs, for the seed test.
PLANS = {
    "paper_sessions": paper_plan,
    "edit_loop": edit_plan,
    "crash_restore": lambda seed: crash_plan(seed)[1],
    "corpus_cold": corpus_plan,
}
