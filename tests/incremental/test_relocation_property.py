"""Relocation is exact: moved spans against a from-scratch analysis.

A span's digest is of its text alone, so a routine that an edit above
it moved keeps its cached parse and analysis, and the engine moves
their lines to the span's new start.  Random sessions over a generated
program insert and delete blank, comment and statement lines (above,
inside and below routines), apply ``parallelize`` and ``reverse`` (a
directive line moves every routine below), and undo and redo.  After
every step the session's analysis must match
``analyze_program(parse_and_bind(source))``: its fingerprint, every
line the units record, and every loop line, edge line and obstacle.
Its parse stage must miss exactly on the span texts the engine has not
parsed before (or forgot when a transformation rewrote them).
"""

from dataclasses import fields, is_dataclass

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.editor import PedSession
from repro.editor.session import PedError
from repro.fortran.ast_nodes import shift_lines
from repro.fortran.symbols import parse_and_bind
from repro.incremental import program_fingerprint, split_units
from repro.interproc.program import analyze_program
from repro.workloads.generator import generate_program

SOURCE = generate_program(n_routines=3, grid=8)
STATEMENT = "      t = 0.0"

#: Sessions per run: 20 in tier-1, a quarter of the profile's count
#: (150) under ``HYPOTHESIS_PROFILE=deep``.
EXAMPLES = max(20, settings.default.max_examples // 4)


def _lines(obj, out, seen):
    """Every ``line``/``end_line`` field reachable from ``obj``, in
    traversal order (each object once)."""

    if isinstance(obj, (list, tuple)):
        for item in obj:
            _lines(item, out, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _lines(item, out, seen)
    elif is_dataclass(obj) and id(obj) not in seen:
        seen.add(id(obj))
        for f in fields(obj):
            value = getattr(obj, f.name)
            if f.name in ("line", "end_line"):
                out.append((type(obj).__name__, f.name, value))
            else:
                _lines(value, out, seen)
    return out


#: A unit with a node of every kind that records a line: typed,
#: dimensioned and COMMON entities, a ``PARAMETER`` value the binder
#: replaces (``max`` becomes a function reference), ``DATA``, and
#: statements with expressions in every slot.
RICH = (
    "      subroutine rich(a, n, m)\n"
    "      integer n, m, k\n"
    "      parameter (k = max(2, 3))\n"
    "      real a(n), b(k, 2)\n"
    "      dimension c(10)\n"
    "      common /blk/ s, d(5)\n"
    "      data s /1.0/\n"
    "      do 10 i = 1, n, 1\n"
    "         if (a(i) .gt. 0.0) then\n"
    "            b(1, 1) = f(a(i)) + c(i)\n"
    "         else if (a(i) .lt. -1.0) then\n"
    "            goto 20\n"
    "         else\n"
    "            write (6, *) a(i), d(1)\n"
    "         endif\n"
    "         call g(a, i)\n"
    " 10   continue\n"
    " 20   return\n"
    "      end\n"
)


def test_shift_lines_matches_a_parse_further_down():
    """``shift_lines`` moves every line a parse records, and only
    those: the shifted unit records the lines of a parse ``delta``
    lines further down."""

    for delta in (3, -2):
        (unit,) = parse_and_bind("\n" * 4 + RICH).units
        (moved,) = parse_and_bind("\n" * (4 + delta) + RICH).units
        shift_lines(unit, delta)
        assert _lines(unit, [], set()) == _lines(moved, [], set()), delta


def _loops(ua):
    edges = sorted(
        (d.src_line, d.dst_line, d.kind, d.var) for d in ua.graph.edges
    )
    loops = [
        (nest.loop.line, ua.loop_info[nest.loop.sid].obstacles)
        for nest in ua.loops
    ]
    return edges, loops


def _insert(session, kind, where, draw):
    """Insert a blank, comment or statement line above a routine,
    inside one (before its ``END``) or below the last one.  Only
    ``inside`` takes a statement: anywhere else it would not parse."""

    lines = session.source.splitlines()
    units = session.sf.units
    unit = units[draw % len(units)]
    text = {"blank": "", "comment": "c probe", "statement": STATEMENT}[kind]
    if where == "inside":
        at = unit.end_line
    else:
        text = "c probe" if kind == "statement" else text
        at = unit.line if where == "above" else len(lines) + 1
    if at <= len(lines):
        session.edit(at, at, text + "\n" + lines[at - 1])
    else:
        session.edit(at - 1, at - 1, lines[at - 2] + "\n" + text)


def _delete(session, draw):
    """Delete a blank, comment (``c$par doall`` included), ``return``
    or inserted statement line, if there is one."""

    lines = session.source.splitlines()
    candidates = [
        i
        for i, text in enumerate(lines, 1)
        if not text.strip()
        or text[0] in "cC"
        or text in (STATEMENT, "      return")
    ]
    if candidates:
        at = candidates[draw % len(candidates)]
        session.edit(at, at, "")


def _apply(session, name, draw):
    """``name`` on a drawn loop; returns the digest of the span it
    rewrote (whose parse the engine forgets), or ``None``."""

    units = session.sf.units
    unit = units[draw % len(units)]
    session.select_unit(unit.name)
    loops = session.loops()
    if not loops:
        return None
    session.select_loop(draw % len(loops))
    (span,) = [
        s
        for s in split_units(session.source)
        if s.start_line <= unit.line <= s.end_line
    ]
    try:
        session.apply(name)
    except PedError:
        return None
    return span.digest


def _step(session, op, draw):
    kind, _, where = op.partition(":")
    if kind == "insert":
        blank, where = where.split("@")
        _insert(session, blank, where, draw)
    elif kind == "delete":
        _delete(session, draw)
    elif kind == "apply":
        return _apply(session, where, draw)
    else:
        try:
            getattr(session, kind)()
        except PedError:  # nothing to undo or redo
            pass
    return None


OPS = sorted(
    [
        f"insert:{kind}@{where}"
        for kind in ("blank", "comment", "statement")
        for where in ("above", "inside", "below")
    ]
    + ["delete", "apply:parallelize", "apply:reverse", "undo", "redo"]
)

sessions = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 7)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=EXAMPLES)
@given(sessions)
def test_moved_spans_match_a_fresh_analysis(ops):
    session = PedSession(SOURCE)
    parse = session.engine.stats.stage("parse")
    seen = {span.digest for span in split_units(SOURCE)}
    for op, draw in ops:
        before = parse.misses
        forgotten = _step(session, op, draw)
        seen.discard(forgotten)
        source = session.source
        digests = {span.digest for span in split_units(source)}
        pa = session.analysis
        assert parse.misses - before == len(digests - seen), op
        seen |= digests

        ref_sf = parse_and_bind(source)
        ref = analyze_program(ref_sf, session.features)
        assert program_fingerprint(pa) == program_fingerprint(ref), op
        assert _lines(session.sf.units, [], set()) == _lines(
            ref_sf.units, [], set()
        ), op
        for name, ua in ref.units.items():
            assert _loops(pa.units[name]) == _loops(ua), (op, name)
