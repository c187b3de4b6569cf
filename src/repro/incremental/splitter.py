"""Split Fortran source into per-procedure-unit spans.

The incremental engine caches parse and analysis results per procedure
unit, keyed by a content hash of the unit's *source span*.  This module
finds those spans without parsing, and after an edit without re-reading
the units the edit left alone, so splitting stays cheap enough to run
on every edit.

Boundaries come from the lexer's logical-line pass
(:func:`repro.fortran.lexer.logical_lines`: comments dropped, label
fields removed, continuations spliced).  A program unit ends at a bare
``END`` statement, one whose text stripped of surrounding blanks is
``end`` in any case; ``enddo``/``endif`` and ``end do``/``end if`` are
other statements.  The strip matters: a free-form ``end &`` spliced
with a label-only line has the text ``"end "``.  Trailing comment/blank
lines attach to the preceding unit; statements after the last ``END``
form a final span so a chunk reparse reports the same "missing END"
error a full parse would.

Splicing.  Given the split of a previous source, only the lines between
the two sources' common prefix and common suffix are new.  The spans
that end inside the prefix are kept as they are, and the spans after
the first one that ends inside the suffix are kept with their lines
moved by the line-count difference (their digests stay: a digest is
of the text alone); the region between is split again.  The logical-line
pass over that region starts at the ``END`` line that closes the last
kept span in front of it: that line begins a statement in both
sources, and the lines before it are the same, so the pass starts in
the state a whole-file pass would be in.
It must find that ``END`` again (an inserted continuation could have
extended it) and must close the region on the ``END`` line the old
split closed it on, which lies in the unchanged suffix, so everything
after reads as before.  When either check fails, or the region runs to
the end of the file and would change the span in front of it, the
split falls back to the whole file, which is the same code with no
kept spans and the region covering every line.

Lexing is still checked, but only where it is new: every statement of
a re-split span whose digest is not in ``known`` goes through the
lexer's statement scanner, in file order, so a bad source raises the
same first :class:`~repro.fortran.errors.LexError` a whole-file
tokenize would.  A span in ``known`` (the engine passes its parse
cache) was lexed cleanly before with the same text, and a kept span
was lexed cleanly in the previous split; statement lexing is a pure
function of ``(text, line)`` whose line only numbers tokens and
errors, so text that lexed cleanly at one line lexes cleanly at any,
and skipping either cannot hide an error.

Spans record their absolute start line; reparsing a span prepends
``start_line - 1`` newlines so every token keeps its original line
number (the lexer skips blank lines), which keeps statement lines —
and therefore dependence endpoints and marking keys — identical to a
whole-file parse.  The digest leaves the start line out, so a unit
that only moved keys the same cache entry, and the engine moves that
entry's lines to the span's start (see
:mod:`repro.incremental.engine`).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Container, List, Optional, Sequence, Tuple

from ..fortran.lexer import Lexer, logical_lines


@dataclass(frozen=True)
class UnitSpan:
    """One program unit's slice of the source text (lines are 1-based,
    inclusive); ``digest``, of the text alone, keys the engine's parse
    cache."""

    start_line: int
    end_line: int
    text: str
    digest: str


#: A previous split to splice from: ``(source, its spans)``.
Previous = Tuple[str, Sequence[UnitSpan]]


def _digest(text: str) -> str:
    # The text alone: a unit that moved keeps its digest, and the
    # engine moves its cached lines (statement lines are absolute).
    return hashlib.sha1(text.encode()).hexdigest()


def _make_span(lines: List[str], start: int, stop: int) -> UnitSpan:
    text = "\n".join(lines[start - 1 : stop]) + "\n"
    return UnitSpan(start, stop, text, _digest(text))


def _moved(span: UnitSpan, delta: int) -> UnitSpan:
    if not delta:
        return span
    return UnitSpan(
        span.start_line + delta, span.end_line + delta, span.text, span.digest
    )


def _common_prefix(a: List[str], b: List[str], limit: int) -> int:
    """Length of the longest common prefix of ``a`` and ``b``, at most
    ``limit`` lines (a binary search over list-slice comparisons)."""

    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _common_suffix(a: List[str], b: List[str], limit: int) -> int:
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[len(a) - mid :] == b[len(b) - mid :]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def split_units(
    source: str,
    known: Container[str] = (),
    previous: Optional[Previous] = None,
) -> List[UnitSpan]:
    """Partition ``source`` into contiguous per-unit spans covering every
    line.  A source with no ``END`` at all becomes a single span (the
    parser will report whatever a full parse would).  Statements of
    spans whose digest is in ``known`` are not lexed again.

    With ``previous`` (an earlier source and its spans, as this function
    returned them), only the spans around the lines that differ are
    split again; the result is the same as without it."""

    lines = source.splitlines()
    if not lines:
        return []
    kept: List[UnitSpan] = []
    first, last = 1, len(lines)
    after: Sequence[UnitSpan] = ()
    delta = 0
    if previous is not None and previous[1]:
        old_source, old_spans = previous
        old = old_source.splitlines()
        if old == lines:
            return list(old_spans)
        limit = min(len(old), len(lines))
        prefix = _common_prefix(old, lines, limit)
        changed_to = len(old) - _common_suffix(old, lines, limit - prefix)
        delta = len(lines) - len(old)
        ends = [span.end_line for span in old_spans]
        # Spans [0, head) end inside the prefix (the final span's end
        # need not be an END line, so it is never kept); ``close`` is
        # the first span from ``head`` on that ends inside the suffix.
        head = bisect_right(ends, prefix, 0, len(ends) - 1)
        close = bisect_left(ends, changed_to + 1, head)
        kept = list(old_spans[:head])
        first = old_spans[head - 1].end_line + 1 if head else 1
        if close < len(ends) - 1:
            last = ends[close] + delta
            after = old_spans[close + 1 :]
    spans = _resplit(lines, first, last, known)
    if spans is None:
        return split_units(source, known)
    return kept + spans + [_moved(span, delta) for span in after]


def _resplit(
    lines: List[str], first: int, last: int, known: Container[str]
) -> Optional[List[UnitSpan]]:
    """Spans covering lines ``first..last``, or ``None`` when that
    region's boundaries would not join the spans around it (see the
    module docstring).  ``first - 1`` is the ``END`` line closing the
    span in front, or 0 at the top of the file."""

    anchor = first - 1
    begin = max(anchor, 1)
    stmts = logical_lines("\n".join(lines[begin - 1 : last]))
    for ll in stmts:
        ll.line += begin - 1
    if anchor:
        if not (
            stmts
            and stmts[0].line == anchor
            and stmts[0].text.strip().lower() == "end"
        ):
            return None
        stmts = stmts[1:]
    ends: List[int] = []
    last_stmt_line = 0
    for ll in stmts:
        text = ll.text.strip()
        if text:
            last_stmt_line = ll.line
            if text.lower() == "end":
                ends.append(ll.line)

    at_eof = last == len(lines)
    if not at_eof:
        if not ends or ends[-1] != last:
            return None
        spans = []
        start = first
        for end_line in ends:
            spans.append(_make_span(lines, start, end_line))
            start = end_line + 1
    elif not ends:
        if anchor and not last_stmt_line:
            return None  # the span in front would absorb these lines
        spans = [_make_span(lines, first, last)]
    else:
        spans = []
        start = first
        for i, end_line in enumerate(ends):
            stop = end_line
            if i == len(ends) - 1 and last_stmt_line <= end_line:
                stop = last  # trailing comments belong to the last unit
            spans.append(_make_span(lines, start, stop))
            start = stop + 1
        if last_stmt_line > ends[-1]:
            spans.append(_make_span(lines, start, last))

    lex = Lexer("")._lex_statement
    i = 0
    for span in spans:
        fresh = span.digest not in known
        while i < len(stmts) and stmts[i].line <= span.end_line:
            if fresh:
                lex(stmts[i].text, stmts[i].line)
            i += 1
    return spans
