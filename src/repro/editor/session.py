"""PedSession: the editor's model object.

One session owns the program text and every piece of derived state — the
bound AST, the whole-program analysis, per-unit assertion databases, the
marking store, variable reclassifications, the current unit/loop
selection and the pane filters — plus an undo stack of full snapshots.

Every mutation (edit, transformation, assertion, reclassification) goes
through :meth:`reanalyze`, mirroring Ped's behaviour of keeping analysis
current with the program ("incremental parsing occurs in response to
edits, and the user is immediately informed").  Reanalysis runs through
the session's :class:`~repro.incremental.AnalysisEngine`: an edit
confined to one procedure reparses and reanalyzes only that procedure,
an assertion or reclassification change reanalyzes without any reparse,
and undo/redo restore previously seen program states straight from the
engine's content-keyed caches — bench M2 quantifies all of it, and the
``stats`` command shows the per-stage numbers live.  Journal replay is
the one caller that defers (:meth:`PedSession.deferring`): there a
mutation reparses at once, so syntax errors still surface in the record
that made them, and the analysis settles with one walk when
:attr:`PedSession.analysis` is next read.

The session is event-sourced: every successful mutation appends a typed
record to :attr:`PedSession.journal`
(:class:`~repro.editor.journal.SessionJournal`), and the live state is
always exactly what replaying that journal from the base source would
produce.  Undo/redo are journal *positions*: each mutation remembers the
record count it happened at, plus an interned snapshot of the state then.
Undo appends an ``undo`` marker and restores the target position — from
its snapshot when still cached, otherwise by replaying the journal
prefix (cheap: the prefix's records only reparse, and previously seen
program states hit the engine's content-keyed caches).  Snapshots
intern identical unit texts across history and are capped
(``max_snapshots``), with evictions counted on ``session.undo_evicted``
— undo depth stays unbounded while undo memory does not.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..dependence.driver import LoopInfo, UnitAnalysis
from ..dependence.graph import Dependence
from ..dependence.references import collect_loops
from ..fortran.ast_nodes import DoLoop, ProcedureUnit, SourceFile
from ..fortran.printer import unit_to_source
from ..incremental import AnalysisEngine
from ..interproc.program import FeatureSet, ProgramAnalysis
from ..transform.base import Advice, TransformContext
from ..transform.registry import get_transformation
from .filters import DependenceFilter, SourceFilter
from .journal import SessionJournal, replay_journal
from .marking import MarkingStore

log = logging.getLogger(__name__)

#: Stable identity of a loop across edits that renumber loop indexes:
#: (loop variable, occurrence of that variable among the unit's loops).
LoopAnchor = Tuple[str, int]

@dataclass
class _Snapshot:
    #: Interned source fragments (the engine's unit spans, so one
    #: fragment per program unit); joining them reproduces the program
    #: text exactly.  Fragments are shared across snapshots, so N
    #: history entries of a lightly edited program cost far less than N
    #: full copies.
    pieces: Tuple[str, ...]
    assertions: Dict[str, List[str]]
    marks: Dict
    overrides: Dict
    unit: str
    loop_index: Optional[int]
    anchors: Dict = field(default_factory=dict)

    @property
    def source(self) -> str:
        return "".join(self.pieces)


class PedError(Exception):
    """User-level session errors (bad selection, failed transformation…)."""


class PedSession:
    """An interactive ParaScope Editor session over one Fortran program."""

    #: Default cap on cached undo/redo snapshots (journal positions past
    #: the cap restore via prefix replay instead).
    MAX_SNAPSHOTS = 64

    def __init__(
        self,
        source: str,
        features: Optional[FeatureSet] = None,
        engine: Optional[AnalysisEngine] = None,
        max_snapshots: Optional[int] = None,
    ) -> None:
        self.engine = engine or AnalysisEngine(features=features)
        self.features = self.engine.features
        self.source = source
        self.journal = SessionJournal(base_source=source)
        self.assertion_texts: Dict[str, List[str]] = {}
        self.markings = MarkingStore()
        #: (unit, loop_line-independent) variable reclassifications:
        #: {unit: {loop_index: {var: class}}}
        self.overrides: Dict[str, Dict[int, Dict[str, str]]] = {}
        #: Loop anchors for each override, so reclassifications follow
        #: their loop when an edit renumbers the loop list.
        self._override_anchors: Dict[str, Dict[int, LoopAnchor]] = {}
        #: Non-fatal notices from the last reanalysis (dropped overrides…).
        self.warnings: List[str] = []
        self.dep_filter = DependenceFilter()
        self.src_filter = SourceFilter()
        self.current_unit: str = ""
        self.loop_index: Optional[int] = None
        #: Undo/redo stacks hold journal *positions* (record counts);
        #: ``_snapshots`` caches the interned state at each position.
        self._undo: List[int] = []
        self._redo: List[int] = []
        #: The redo stack a pending mutation's ``_push_undo`` replaced.
        self._redo_before: List[int] = []
        self._snapshots: "OrderedDict[int, _Snapshot]" = OrderedDict()
        self._max_snapshots = (
            self.MAX_SNAPSHOTS if max_snapshots is None else max(1, max_snapshots)
        )
        self._intern_pool: Dict[str, str] = {}
        self.sf: SourceFile = None  # type: ignore[assignment]
        self._analysis: ProgramAnalysis = None  # type: ignore[assignment]
        #: ``reanalyze`` only parses while set (:meth:`deferring`)...
        self._defer = False
        #: ...and leaves the analysis behind the parse until it is read.
        self._stale = False
        self.last_message = ""
        self.reanalyze()

    # ------------------------------------------------------------------
    # analysis lifecycle
    # ------------------------------------------------------------------

    @property
    def analysis(self) -> ProgramAnalysis:
        """The whole-program analysis of the current state.  When
        deferred mutations left it behind the parse, reading it settles
        it first with one engine walk."""

        if self._stale:
            self._analyze()
            self._refresh_analysis()
        return self._analysis

    @contextmanager
    def deferring(self) -> Iterator[None]:
        """Within the block, :meth:`reanalyze` only parses and binds the
        new source, and the analysis settles when something reads it.

        Journal replay applies its records this way: nothing reads the
        states between them, so N records cost N parses plus one walk
        instead of N walks.  A parse raises every front-end error a walk
        would, so a bad edit is still rejected in its own record.
        """

        self._defer = True
        try:
            yield
        finally:
            self._defer = False

    def reanalyze(self) -> None:
        """(Re)parse and (re)analyze; re-apply markings and overrides.

        Runs through the incremental engine: only units whose source
        span, assertions or interprocedural inputs changed are actually
        recomputed.  Under :meth:`deferring`, only the parse runs now
        and the rest waits until :attr:`analysis` is read.

        When the current unit is gone (an edit renamed or deleted it),
        the session moves to the program's first unit, clears the loop
        selection and says so in :attr:`warnings`.  Reclassifications
        follow their loops (:meth:`_remap_overrides`).  Both read only
        the parse.
        """

        self.warnings = []
        if self._defer:
            self.sf = self.engine.parse(self.source)
            self._stale = True
        else:
            self._analyze()
        if self.current_unit not in self._unit_names():
            gone = self.current_unit
            self.current_unit = self.sf.units[0].name if self.sf.units else ""
            self.loop_index = None
            if gone:
                self.warnings.append(
                    f"unit {gone!r} no longer exists; the current unit "
                    f"is now {self.current_unit!r}"
                )
        self._remap_overrides()
        if not self._stale:
            self._refresh_analysis()

    def _analyze(self) -> None:
        self.sf, self._analysis = self.engine.analyze(
            self.source, assertions=self.assertion_texts
        )
        self._stale = False

    def _refresh_analysis(self) -> None:
        """Re-apply markings, reclassifications and verdicts after a walk.

        Only where they can differ from what the engine handed back: in
        units it recomputed or restored, and in units holding a marking
        or reclassification.  The latter are reported to the engine as
        changed in place, so its next walk restores them.  Every other
        unit is the pristine analysis, on which a verdict refresh
        changes nothing.
        """

        engine = self.engine
        held = self._units_with_marks() | self.overrides.keys()
        touched = engine.refreshed | held
        for name, ua in self._analysis.units.items():
            if name in touched:
                self.markings.apply(ua.graph)
                self._apply_overrides(ua)
                self._recompute_verdicts(ua)
        engine.note_mutated(held)

    def _unit_names(self) -> set:
        return {u.name for u in self.sf.units}

    def _units_with_marks(self) -> set:
        """Units a stored marking can land in.  Marking keys name their
        endpoints' source lines, and a unit's statements lie between its
        first statement and the next unit's."""

        if not self.markings.marks:
            return set()
        units = self.sf.units
        firsts = [u.line for u in units]
        held = set()
        for _kind, _var, src, dst, _vector in self.markings.marks:
            for line in (src, dst):
                i = bisect_right(firsts, line) - 1
                if i >= 0:
                    held.add(units[i].name)
        return held

    def _loop_anchors(self, unit: ProcedureUnit) -> List[LoopAnchor]:
        """One anchor per loop of ``unit``, in the order of its
        analysis's loop list (:func:`collect_loops` builds both)."""

        counts: Dict[str, int] = {}
        anchors: List[LoopAnchor] = []
        for nest in collect_loops(unit):
            var = nest.loop.var
            occurrence = counts.get(var, 0)
            counts[var] = occurrence + 1
            anchors.append((var, occurrence))
        return anchors

    def _remap_overrides(self) -> None:
        """Re-anchor reclassifications after reanalysis.

        Loop indexes are positions in the unit's loop list, so an edit
        that adds or removes a loop renumbers everything after it.  Each
        override carries a (loop var, occurrence) anchor; overrides whose
        anchor still exists follow their loop to its new index, the rest
        are dropped *with a warning* rather than silently skipped.
        """

        new_overrides: Dict[str, Dict[int, Dict[str, str]]] = {}
        new_anchors: Dict[str, Dict[int, LoopAnchor]] = {}
        units = {u.name: u for u in self.sf.units}
        for unit_name, per_unit in self.overrides.items():
            unit = units.get(unit_name)
            if unit is None:
                self.warnings.append(
                    f"dropped reclassifications for {unit_name!r}: "
                    "the unit no longer exists"
                )
                continue
            anchors = self._loop_anchors(unit)
            index_of = {anchor: i for i, anchor in enumerate(anchors)}
            unit_anchors = self._override_anchors.get(unit_name, {})
            for old_idx in sorted(per_unit):
                classes = per_unit[old_idx]
                if not classes:
                    continue
                anchor = unit_anchors.get(old_idx)
                if anchor is None and old_idx < len(anchors):
                    anchor = anchors[old_idx]
                new_idx = index_of.get(anchor) if anchor is not None else None
                if new_idx is None:
                    names = ", ".join(sorted(classes))
                    self.warnings.append(
                        f"dropped reclassification of {names} on "
                        f"{unit_name} loop[{old_idx}]: the loop no longer "
                        "exists after the edit"
                    )
                    continue
                slot = new_overrides.setdefault(unit_name, {}).setdefault(
                    new_idx, {}
                )
                slot.update(classes)
                new_anchors.setdefault(unit_name, {})[new_idx] = anchor
        self.overrides = new_overrides
        self._override_anchors = new_anchors

    def _apply_overrides(self, ua: UnitAnalysis) -> None:
        per_unit = self.overrides.get(ua.unit.name, {})
        for loop_idx, classes in per_unit.items():
            if loop_idx >= len(ua.loops):
                self.warnings.append(
                    f"reclassification on {ua.unit.name} loop[{loop_idx}] "
                    "has no matching loop; ignored"
                )
                continue
            loop = ua.loops[loop_idx].loop
            for var, cls in classes.items():
                if cls == "private":
                    for dep in ua.graph.carried_by(loop):
                        if dep.var == var and dep.marking != "proven":
                            dep.marking = "rejected"

    def _recompute_verdicts(self, ua: UnitAnalysis) -> None:
        """Refresh per-loop verdicts after markings changed edge states."""

        for info in ua.loop_info.values():
            blocking = info.blocking_deps()
            dep_obstacles = [
                f"loop-carried {d.kind} dependence on {d.var} "
                f"{d.vector_str()} [{d.marking}]"
                for d in blocking
            ]
            other = [
                o
                for o in info.obstacles
                if not o.startswith("loop-carried")
            ]
            info.obstacles = dep_obstacles + other
            info.parallelizable = not info.obstacles

    # ------------------------------------------------------------------
    # selection & queries
    # ------------------------------------------------------------------

    @property
    def unit(self) -> ProcedureUnit:
        try:
            return self.sf.unit(self.current_unit)
        except KeyError:
            raise PedError(f"no unit named {self.current_unit!r}")

    @property
    def unit_analysis(self) -> UnitAnalysis:
        return self.analysis.unit(self.current_unit)

    def select_unit(self, name: str) -> None:
        name = name.lower()
        names = self._unit_names()
        if name not in names:
            known = ", ".join(sorted(names))
            raise PedError(f"unknown unit {name!r}; program units: {known}")
        self.current_unit = name
        self.loop_index = None
        # Selection is journaled because mutations depend on it (apply,
        # reclassify, add_assertion): a replayed prefix must land on the
        # same unit/loop the live session had at that point.
        self.journal.append("select", unit=name)

    def loops(self) -> List:
        return self.unit_analysis.loops

    def select_loop(self, index: int) -> None:
        loops = self.loops()
        if not 0 <= index < len(loops):
            raise PedError(
                f"loop index {index} out of range (unit has {len(loops)} loops)"
            )
        self.loop_index = index
        self.journal.append("select", loop=index)

    @property
    def selected_loop(self) -> Optional[DoLoop]:
        if self.loop_index is None:
            return None
        loops = self.loops()
        if self.loop_index >= len(loops):
            return None
        return loops[self.loop_index].loop

    @property
    def selected_info(self) -> Optional[LoopInfo]:
        loop = self.selected_loop
        if loop is None:
            return None
        return self.unit_analysis.loop_info[loop.sid]

    def dependences(self, unfiltered: bool = False) -> List[Dependence]:
        """Dependence-pane contents for the current selection."""

        ua = self.unit_analysis
        loop = self.selected_loop
        if loop is None:
            edges = (
                ua.graph.edges
                if unfiltered
                else self.dep_filter.candidates(ua.graph)
            )
        else:
            sids = ua.body_sids(loop) | {loop.sid}
            edges = ua.graph.edges_within(sids)
        if unfiltered:
            return list(edges)
        return [d for d in edges if self.dep_filter.matches(d)]

    def find_dependence(self, dep_id: int) -> Dependence:
        try:
            return self.unit_analysis.graph.find(dep_id)
        except KeyError:
            raise PedError(f"no dependence #{dep_id} in {self.current_unit}")

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def _intern(self, text: str) -> str:
        return self._intern_pool.setdefault(text, text)

    def _intern_pieces(self, source: str) -> Tuple[str, ...]:
        """Source as a tuple of interned fragments: the texts of the
        engine's unit spans, which it keeps for the sources it split
        last (a parsed source is all this is asked for).

        Unedited units keep byte-identical span texts across snapshots
        and collapse to one interned string each.  Span texts end every
        line with ``\\n``; a source they do not reassemble exactly (other
        line breaks, no final newline) is kept as one fragment.
        """

        texts = [span.text for span in self.engine.spans(source)]
        if "".join(texts) != source:
            return (self._intern(source),)
        return tuple(self._intern(text) for text in texts)

    def _current_snapshot(self) -> _Snapshot:
        return _Snapshot(
            self._intern_pieces(self.source),
            {k: list(v) for k, v in self.assertion_texts.items()},
            self.markings.snapshot(),
            {
                u: {i: dict(c) for i, c in per.items()}
                for u, per in self.overrides.items()
            },
            self.current_unit,
            self.loop_index,
            {u: dict(a) for u, a in self._override_anchors.items()},
        )

    def _remember(self, position: int) -> None:
        """Cache the current state as the snapshot for journal ``position``,
        evicting the oldest cached snapshot past the cap (restoring an
        evicted position replays the journal prefix instead)."""

        self._snapshots.pop(position, None)
        self._snapshots[position] = self._current_snapshot()
        while len(self._snapshots) > self._max_snapshots:
            evicted, _ = self._snapshots.popitem(last=False)
            self.engine.stats.bump("session.undo_evicted")
            log.info(
                "undo snapshot for journal position %d evicted "
                "(cap %d); undo to it will replay the journal prefix",
                evicted,
                self._max_snapshots,
            )

    def _push_undo(self) -> None:
        position = len(self.journal)
        self._remember(position)
        self._undo.append(position)
        self._redo_before, self._redo = self._redo, []

    def _drop_undo(self) -> None:
        """Take back :meth:`_push_undo` for a mutation that failed: it
        journals nothing, so it must leave redo as it was too."""

        self._undo.pop()
        self._redo = self._redo_before

    def _restore(self, snap: _Snapshot) -> None:
        self.source = snap.source
        self.assertion_texts = {k: list(v) for k, v in snap.assertions.items()}
        self.markings.restore(snap.marks)
        self.overrides = {
            u: {i: dict(c) for i, c in per.items()}
            for u, per in snap.overrides.items()
        }
        self._override_anchors = {
            u: dict(a) for u, a in snap.anchors.items()
        }
        self.current_unit = snap.unit
        self.loop_index = snap.loop_index
        self.reanalyze()

    def _snapshot_of(self, other: "PedSession") -> _Snapshot:
        return _Snapshot(
            self._intern_pieces(other.source),
            {k: list(v) for k, v in other.assertion_texts.items()},
            other.markings.snapshot(),
            {
                u: {i: dict(c) for i, c in per.items()}
                for u, per in other.overrides.items()
            },
            other.current_unit,
            other.loop_index,
            {u: dict(a) for u, a in other._override_anchors.items()},
        )

    def _restore_position(self, position: int) -> None:
        snap = self._snapshots.get(position)
        if snap is None:
            # Evicted: rebuild the state by replaying the journal prefix
            # through this session's (warm) engine.
            self.engine.stats.bump("session.undo_replayed")
            scratch = replay_journal(self.journal, position, engine=self.engine)
            snap = self._snapshot_of(scratch)
        self._restore(snap)

    @property
    def undo_depth(self) -> int:
        return len(self._undo)

    @property
    def redo_depth(self) -> int:
        return len(self._redo)

    def undo(self) -> None:
        if not self._undo:
            raise PedError("nothing to undo")
        target = self._undo.pop()
        position = len(self.journal)
        self._remember(position)
        self._redo.append(position)
        self.journal.append("undo")
        self._restore_position(target)

    def redo(self) -> None:
        if not self._redo:
            raise PedError("nothing to redo")
        target = self._redo.pop()
        position = len(self.journal)
        self._remember(position)
        self._undo.append(position)
        self.journal.append("redo")
        self._restore_position(target)

    def mark_dependence(self, dep_id: int, marking: str) -> str:
        dep = self.find_dependence(dep_id)
        self._push_undo()
        from .marking import MarkingError

        try:
            self.markings.mark(dep, marking)
        except MarkingError as exc:
            self._drop_undo()
            raise PedError(str(exc)) from exc
        # The edge lives in the current unit's graph: only its verdicts
        # can move.
        self._recompute_verdicts(self.unit_analysis)
        self.engine.note_mutated((self.current_unit,))
        self.journal.append("mark", dep=dep_id, marking=marking)
        return f"dependence #{dep_id} on {dep.var} marked {marking}"

    def add_assertion(self, text: str) -> str:
        from ..assertions.facts import AssertionSyntaxError, parse_assertion

        try:
            parse_assertion(text)
        except AssertionSyntaxError as exc:
            raise PedError(str(exc)) from exc
        self._push_undo()
        self.assertion_texts.setdefault(self.current_unit, []).append(text)
        self.reanalyze()
        self.journal.append("assert", text=text)
        return f"assertion recorded for {self.current_unit}: {text}"

    def reclassify(self, var: str, classification: str) -> str:
        if classification not in ("private", "shared"):
            raise PedError("reclassify supports 'private' or 'shared'")
        if self.loop_index is None:
            raise PedError("select a loop first")
        # The anchors come from the AST, so a selection an edit left out
        # of range is refused here without settling a replay.
        anchors = self._loop_anchors(self.unit)
        if self.loop_index >= len(anchors):
            raise PedError("select a loop first")
        self._push_undo()
        per_unit = self.overrides.setdefault(self.current_unit, {})
        classes = per_unit.setdefault(self.loop_index, {})
        if classification == "shared":
            classes.pop(var.lower(), None)
        else:
            classes[var.lower()] = classification
        if classes:
            self._override_anchors.setdefault(self.current_unit, {})[
                self.loop_index
            ] = anchors[self.loop_index]
        else:
            per_unit.pop(self.loop_index, None)
            self._override_anchors.get(self.current_unit, {}).pop(
                self.loop_index, None
            )
        self.reanalyze()
        self.journal.append("reclassify", var=var, classification=classification)
        return f"{var} reclassified as {classification}"

    def _transform_context(self) -> TransformContext:
        # The analysis first: settling it can rebind ``self.sf``.
        ua = self.unit_analysis
        return TransformContext(self.unit, ua, self.sf)

    def diagnose(self, name: str, **kwargs) -> Advice:
        """Power steering step 1: ask for advice without changing code."""

        transform = get_transformation(name)
        ctx = self._transform_context()
        kwargs = self._resolve_selection(kwargs)
        return transform.diagnose(ctx, **kwargs)

    def apply(self, name: str, **kwargs) -> str:
        """Power steering step 2: perform the transformation, write the
        rewritten unit back (:meth:`write_back`) and reanalyze."""

        from ..transform.base import TransformError

        transform = get_transformation(name)
        # Journal the caller's arguments, not the resolved AST targets:
        # replay re-resolves from the (journaled) selection, which is
        # what keeps the record serializable and the replay honest.
        given = dict(kwargs)
        ctx = self._transform_context()
        # Resolve before the undo point: a target that does not exist
        # is refused without touching undo or the journal.
        kwargs = self._resolve_selection(kwargs)
        self._push_undo()
        units = len(self.sf.units)
        try:
            summary = transform.apply(ctx, **kwargs)
        except TransformError as exc:
            self._drop_undo()
            raise PedError(str(exc)) from exc
        self.write_back([ctx.unit], self.sf.units[units:])
        self.reanalyze()
        self.journal.append("apply", transform=name, args=given)
        self.last_message = summary
        return summary

    def write_back(
        self,
        rewritten: Sequence[ProcedureUnit],
        added: Sequence[ProcedureUnit] = (),
    ) -> None:
        """Put units a transformation changed in place back into the
        source, without reanalyzing.

        Each rewritten unit's own lines, from its header to its
        ``END``, become its printed text; every other line keeps its
        text, comments and other routines included.  Added units are
        printed at the end of the file.  The engine forgets only the
        rewritten units' parses, and markings below a rewritten unit
        move by its change in line count, as they do below an edit.
        """

        self.engine.forget(self.source, rewritten)
        lines = self.source.splitlines()
        # Bottom-up, so the units above keep their line numbers.
        for unit in sorted(rewritten, key=lambda u: u.line, reverse=True):
            self._replace_lines(
                lines,
                unit.line,
                unit.end_line,
                unit_to_source(unit).splitlines(),
            )
        for unit in added:
            self.source += "\n" + unit_to_source(unit)

    def _replace_lines(
        self, lines: List[str], start: int, end: int, new_lines: List[str]
    ) -> None:
        """Replace lines [start, end] (1-based, inclusive) of ``lines``,
        the source's lines, with ``new_lines``; the result is the new
        source.  Markings past the replaced range move by the change in
        line count, so they keep matching their edges."""

        lines[start - 1 : end] = new_lines
        self.source = "\n".join(lines) + "\n"
        self.markings.shift_lines(end, len(new_lines) - (end - start + 1))

    def _resolve_selection(self, kwargs: Dict) -> Dict:
        """Fill the transformation's target from the session selection.

        A ``line=N`` argument selects the statement at that source line
        (a CALL becomes the ``call`` argument, anything else ``stmt``);
        otherwise the selected loop is passed as ``loop``.
        """

        kwargs = dict(kwargs)
        line = kwargs.pop("line", None)
        if line is not None:
            from ..fortran.ast_nodes import CallStmt, walk_statements

            target = None
            for st in walk_statements(self.unit.body):
                if st.line == int(line):
                    target = st
                    break
            if target is None:
                raise PedError(f"no statement at line {line}")
            if isinstance(target, CallStmt):
                kwargs.setdefault("call", target)
            elif isinstance(target, DoLoop):
                kwargs.setdefault("loop", target)
            else:
                kwargs.setdefault("stmt", target)
        if (
            "loop" not in kwargs
            and "call" not in kwargs
            and "stmt" not in kwargs
            and self.selected_loop is not None
        ):
            kwargs["loop"] = self.selected_loop
        return kwargs

    def edit(self, start_line: int, end_line: int, new_text: str) -> str:
        """Replace source lines [start_line, end_line] (1-based, inclusive).

        The session reparses immediately; syntax errors roll the edit back
        and surface as :class:`PedError` — Ped's "the user is immediately
        informed of any syntactic or semantic errors".
        """

        lines = self.source.splitlines()
        last = len(lines)
        if not (1 <= start_line <= end_line <= last):
            raise PedError(
                f"line range {start_line}-{end_line} outside 1-{last}"
            )
        self._push_undo()
        saved_marks = self.markings.snapshot()
        old_source = self.source
        self._replace_lines(lines, start_line, end_line, new_text.splitlines())
        from ..fortran.errors import FortranError

        try:
            self.reanalyze()
        except FortranError as exc:
            self.source = old_source
            self.markings.restore(saved_marks)
            self._drop_undo()
            self.reanalyze()
            raise PedError(f"edit rejected: {exc}") from exc
        self.journal.append(
            "edit", start=start_line, end=end_line, text=new_text
        )
        message = f"replaced lines {start_line}-{end_line}"
        for warning in self.warnings:
            message += f"\nwarning: {warning}"
        return message

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------

    def parallel_summary(self) -> List[Tuple[str, int, int]]:
        """(unit, parallel loops, total loops) triples."""

        out = []
        for name, ua in sorted(self.analysis.units.items()):
            out.append((name, len(ua.parallel_loops()), len(ua.loops)))
        return out
