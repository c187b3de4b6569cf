"""The editor's command language.

The X11 Ped drove everything through menus and mouse selections; the
reproduction exposes the same operations as a deterministic command
interpreter so sessions can be scripted, replayed and tested:

=================  =====================================================
``units``           list program units
``unit NAME``       switch to a unit
``loops``           list loops with verdicts
``select N``        select loop N (from ``loops``)
``deps``            dependence pane for the selection
``filter SPEC``     set the dependence filter (``type=… var=… carried``)
``viewsrc SPEC``    set the source filter (``loops`` / ``text=…``)
``mark N M``        mark dependence N accepted/rejected/pending
``assert TEXT``     add a user assertion (``assert n >= 1``)
``classify V C``    reclassify variable V as private/shared
``advice T [...]``  power-steering diagnosis for transformation T
``apply T [...]``   apply transformation T (args: ``var=`` ``factor=`` …)
``edit A B | TEXT`` replace source lines A..B with TEXT
``vars``            variable pane for the selection
``show``            render the full Ped window
``ranking``         performance-ranked loop list
``next``            jump to hottest unparallelized loop
``estimate``        static cost / speedup estimate for the selection
``profile``         interpreter-based loop-level profile
``goto N``          show both endpoints of dependence N
``callgraph [dot]`` call-graph tree (or Graphviz DOT)
``check``           Composition Editor: cross-procedure consistency
``summary``         per-unit parallel loop counts
``stats``           incremental-engine timers and cache hit rates
``undo`` ``redo``   session history
``journal``         the session's mutation journal (the event log
                    undo/redo and crash restore replay)
=================  =====================================================
"""

from __future__ import annotations

from typing import List

from .display import render_window
from .filters import DependenceFilter, SourceFilter
from .navigation import goto_hottest, ranked_loops
from .panes import dependence_pane, loop_pane, variable_pane
from .session import PedError, PedSession


def _int(text: str):
    """``text`` as an integer, or ``None`` when it is not one."""

    try:
        return int(text)
    except ValueError:
        return None


class CommandInterpreter:
    """Executes editor commands against a session, returning text."""

    def __init__(self, session: PedSession) -> None:
        self.session = session
        self.log: List[str] = []

    def execute(self, line: str) -> str:
        """Run one command; errors come back as ``error: …`` text."""

        self.log.append(line)
        try:
            return self._dispatch(line.strip())
        except PedError as exc:
            return f"error: {exc}"
        except KeyError as exc:
            return f"error: {exc.args[0] if exc.args else exc}"
        except ValueError as exc:
            return f"error: {exc}"

    def run_script(self, lines) -> List[str]:
        """Execute a sequence of commands, returning all outputs."""

        return [self.execute(line) for line in lines if line.strip()]

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, line: str) -> str:
        if not line:
            return ""
        parts = line.split(None, 1)
        cmd = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        handler = getattr(self, f"_cmd_{cmd}", None)
        if handler is None:
            return f"error: unknown command {cmd!r} (try 'help')"
        return handler(rest)

    # -- commands ------------------------------------------------------------

    def _cmd_help(self, rest: str) -> str:
        return (__doc__ or "").strip()

    def _cmd_units(self, rest: str) -> str:
        rows = []
        for name, ua in sorted(self.session.analysis.units.items()):
            mark = ">" if name == self.session.current_unit else " "
            rows.append(
                f"{mark} {name:<12} {ua.unit.kind:<11} "
                f"{len(ua.loops)} loop(s), "
                f"{len(ua.parallel_loops())} parallelizable"
            )
        return "\n".join(rows)

    def _cmd_unit(self, rest: str) -> str:
        self.session.select_unit(rest.strip())
        return f"unit {rest.strip().lower()}"

    def _cmd_loops(self, rest: str) -> str:
        rows = []
        for lrow in loop_pane(self.session):
            sel = ">" if self.session.loop_index == lrow.index else " "
            indent = "  " * (lrow.depth - 1)
            rows.append(
                f"{sel} [{lrow.index}] {indent}do {lrow.header[3:]:<20} "
                f"line {lrow.line:<4} {lrow.verdict}"
            )
        return "\n".join(rows) if rows else "(no loops)"

    def _cmd_select(self, rest: str) -> str:
        index = _int(rest)
        if index is None:
            return "error: usage: select <loop-index>"
        self.session.select_loop(index)
        loop = self.session.selected_loop
        assert loop is not None
        return f"selected loop {loop.var} at line {loop.line}"

    def _cmd_deps(self, rest: str) -> str:
        rows = dependence_pane(self.session)
        if not rows:
            return "(no dependences match the filter)"
        out = []
        for r in rows:
            note = f"  [{r.note}]" if r.note else ""
            out.append(
                f"#{r.dep_id:<3} {r.kind:<7} {r.var:<10} {r.vector:<10} "
                f"{r.marking:<9} {r.src_line:>4} -> {r.dst_line:<4}"
                f" {r.test}{note}"
            )
        return "\n".join(out)

    def _cmd_filter(self, rest: str) -> str:
        self.session.dep_filter = DependenceFilter.parse(rest)
        return f"dependence filter: {self.session.dep_filter.describe()}"

    def _cmd_viewsrc(self, rest: str) -> str:
        f = SourceFilter()
        for token in rest.split():
            if token == "loops":
                f.loops_only = True
            elif token.startswith("text="):
                f.contains = token[5:]
            elif token == "all":
                f = SourceFilter()
            else:
                return f"error: unknown source filter token {token!r}"
        self.session.src_filter = f
        return f"source filter: {f.describe()}"

    def _cmd_mark(self, rest: str) -> str:
        parts = rest.split()
        dep_id = _int(parts[0]) if len(parts) == 2 else None
        if dep_id is None:
            return "error: usage: mark <dep-id> accepted|rejected|pending"
        return self.session.mark_dependence(dep_id, parts[1].lower())

    def _cmd_assert(self, rest: str) -> str:
        return self.session.add_assertion(rest)

    def _cmd_classify(self, rest: str) -> str:
        parts = rest.split()
        if len(parts) != 2:
            return "error: usage: classify <var> private|shared"
        return self.session.reclassify(parts[0], parts[1].lower())

    def _cmd_advice(self, rest: str) -> str:
        name, kwargs = self._parse_transform_args("advice", rest)
        advice = self.session.diagnose(name, **kwargs)
        return f"{name}: {advice.describe()}"

    def _cmd_apply(self, rest: str) -> str:
        name, kwargs = self._parse_transform_args("apply", rest)
        return self.session.apply(name, **kwargs)

    def _parse_transform_args(self, cmd: str, rest: str):
        parts = rest.split()
        if not parts:
            raise PedError(f"usage: {cmd} <transformation> [key=value ...]")
        name = parts[0]
        kwargs = {}
        for token in parts[1:]:
            key, eq, value = token.partition("=")
            if key in ("factor", "size", "line"):
                value = _int(value)
            if not eq or value is None:
                raise PedError(f"bad transformation argument {token!r}")
            kwargs[key] = value
        return name, kwargs

    def _cmd_edit(self, rest: str) -> str:
        # edit A B | replacement text (may contain \n escapes)
        head, sep, text = rest.partition("|")
        lines = [_int(part) for part in head.split()]
        if len(lines) != 2 or None in lines or not sep:
            return "error: usage: edit <first> <last> | <replacement>"
        new_text = text.strip().replace("\\n", "\n")
        return self.session.edit(lines[0], lines[1], new_text)

    def _cmd_vars(self, rest: str) -> str:
        rows = variable_pane(self.session)
        if not rows:
            return "(select a loop)"
        out = []
        for r in rows:
            star = "*" if r.user_override else " "
            out.append(f"{star}{r.name:<12} {r.classification:<10} {r.detail}")
        return "\n".join(out)

    def _cmd_show(self, rest: str) -> str:
        return render_window(self.session)

    def _cmd_ranking(self, rest: str) -> str:
        out = []
        for cost, unit, idx, nest in ranked_loops(self.session)[:12]:
            out.append(
                f"{cost:>12.0f}  {unit:<12} loop[{idx}] {nest.loop.var} "
                f"line {nest.loop.line}"
            )
        return "\n".join(out)

    def _cmd_next(self, rest: str) -> str:
        return goto_hottest(self.session)

    def _cmd_summary(self, rest: str) -> str:
        out = []
        for unit, par, total in self.session.parallel_summary():
            out.append(f"{unit:<12} {par}/{total} loops parallelizable")
        return "\n".join(out)

    def _cmd_stats(self, rest: str) -> str:
        """Incremental-engine observability: stage timers, cache hits,
        plus the merged service metrics (same keys as the server's
        ``metrics`` op)."""

        from ..service.metrics import merged_metrics, render_metrics

        engine = self.session.engine
        metrics = merged_metrics(engine.stats, memo=engine.shared_memo)
        return engine.stats.render() + "\n\n" + render_metrics(metrics)

    def _cmd_callgraph(self, rest: str) -> str:
        """The program's call graph ('dot' argument emits Graphviz)."""

        from .callgraph_view import ascii_tree, to_dot

        if rest.strip() == "dot":
            return to_dot(self.session.analysis)
        from ..perf.estimator import PerformanceEstimator

        est = PerformanceEstimator()
        costs = est.compute_unit_costs(self.session.analysis)
        return ascii_tree(self.session.analysis, costs)

    def _cmd_check(self, rest: str) -> str:
        """Composition Editor: cross-procedure consistency checks."""

        from .composition import check_composition

        issues = check_composition(self.session.sf)
        if not issues:
            return "no cross-procedure inconsistencies found"
        return "\n".join(str(i) for i in issues)

    def _cmd_estimate(self, rest: str) -> str:
        """Static performance estimate for the selected loop."""

        from ..perf.estimator import PerformanceEstimator

        loop = self.session.selected_loop
        if loop is None:
            return "error: select a loop first"
        est = PerformanceEstimator()
        est.compute_unit_costs(self.session.analysis)
        ce = est.loop_estimate(loop, self.session.unit_analysis)
        return (
            f"trip ≈ {ce.trip:.0f}; sequential ≈ {ce.sequential:.0f} cycles; "
            f"parallel ≈ {ce.parallel:.0f} cycles "
            f"(predicted speedup {ce.speedup:.2f}x on "
            f"{est.machine.n_procs} procs)"
        )

    def _cmd_profile(self, rest: str) -> str:
        """Interpreter-based loop profile (the gprof/Forge substitute)."""

        from ..perf.profiler import profile_program

        try:
            profile = profile_program(self.session.sf)
        except Exception as exc:  # interpreter needs a runnable main
            return f"error: cannot profile: {exc}"
        out = [f"{'unit':<12} {'line':>5} {'var':>4} {'iterations':>11} {'avg trip':>9}"]
        for lp in profile.hottest_loops(10):
            out.append(
                f"{lp.unit:<12} {lp.line:>5} {lp.var:>4} "
                f"{lp.iterations:>11} {lp.avg_trip:>9.1f}"
            )
        return "\n".join(out)

    def _cmd_goto(self, rest: str) -> str:
        """Navigate to a dependence's endpoints: show both source lines."""

        dep_id = _int(rest)
        if dep_id is None:
            return "error: usage: goto <dep-id>"
        dep = self.session.find_dependence(dep_id)
        lines = self.session.source.splitlines()

        def show(lineno: int) -> str:
            if 1 <= lineno <= len(lines):
                return f"{lineno:>5} {lines[lineno - 1].strip()}"
            return f"{lineno:>5} ???"

        return (
            f"dependence #{dep_id}: {dep.kind} on {dep.var} {dep.vector_str()}\n"
            f"  source: {show(dep.src_line)}\n"
            f"  sink:   {show(dep.dst_line)}"
        )

    def _cmd_undo(self, rest: str) -> str:
        self.session.undo()
        return "undone"

    def _cmd_redo(self, rest: str) -> str:
        self.session.redo()
        return "redone"

    def _cmd_journal(self, rest: str) -> str:
        records = self.session.journal.records
        if not records:
            return "journal empty"
        out = [
            f"{len(records)} record(s), undo depth "
            f"{self.session.undo_depth}, redo depth "
            f"{self.session.redo_depth}"
        ]
        for i, record in enumerate(records):
            arg_text = " ".join(
                f"{k}={v!r}" for k, v in sorted(record.args.items())
            )
            out.append(f"  [{i:>4}] {record.op:<10} {arg_text}".rstrip())
        return "\n".join(out)

    def _cmd_source(self, rest: str) -> str:
        return self.session.source
