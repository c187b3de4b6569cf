"""Split Fortran source into per-procedure-unit spans.

The incremental engine caches parse and analysis results per procedure
unit, keyed by a content hash of the unit's *source span*.  This module
finds those spans without parsing and without tokenizing the whole
file, so splitting stays cheap enough to run on every edit.

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

Lexing is still checked, but only where it is new: every statement of
a span whose digest is not in ``known`` goes through the lexer's
statement scanner, in file order, so a bad source raises the same first
:class:`~repro.fortran.errors.LexError` a whole-file tokenize would.  A
span in ``known`` (the engine passes its parse cache) was lexed cleanly
before at the same text and start line, and statement lexing is a pure
function of ``(text, line)``, so skipping it cannot hide an error.

Spans record their absolute start line; reparsing a span prepends
``start_line - 1`` newlines so every token keeps its original line
number (the lexer skips blank lines), which keeps statement lines —
and therefore dependence endpoints and marking keys — identical to a
whole-file parse.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Container, List

from ..fortran.lexer import Lexer, logical_lines


@dataclass(frozen=True)
class UnitSpan:
    """One program unit's slice of the source text (lines are 1-based,
    inclusive); ``digest`` keys the engine's parse cache."""

    start_line: int
    end_line: int
    text: str
    digest: str


def _digest(start_line: int, text: str) -> str:
    # The start line participates: moving a unit down shifts every
    # statement's line number, which analysis results depend on.
    return hashlib.sha1(f"{start_line}\n{text}".encode()).hexdigest()


def _make_span(lines: List[str], start: int, stop: int) -> UnitSpan:
    text = "\n".join(lines[start - 1 : stop]) + "\n"
    return UnitSpan(start, stop, text, _digest(start, text))


def split_units(source: str, known: Container[str] = ()) -> List[UnitSpan]:
    """Partition ``source`` into contiguous per-unit spans covering every
    line.  A source with no ``END`` at all becomes a single span (the
    parser will report whatever a full parse would).  Statements of
    spans whose digest is in ``known`` are not lexed again."""

    lines = source.splitlines()
    if not lines:
        return []
    stmts = logical_lines(source)
    ends: List[int] = []
    last_stmt_line = 0
    for ll in stmts:
        text = ll.text.strip()
        if text:
            last_stmt_line = ll.line
            if text.lower() == "end":
                ends.append(ll.line)

    if not ends:
        spans = [_make_span(lines, 1, len(lines))]
    else:
        spans = []
        start = 1
        for i, end_line in enumerate(ends):
            stop = end_line
            if i == len(ends) - 1 and last_stmt_line <= end_line:
                stop = len(lines)  # trailing comments belong to the last unit
            spans.append(_make_span(lines, start, stop))
            start = stop + 1
        if last_stmt_line > ends[-1]:
            spans.append(_make_span(lines, start, len(lines)))

    lex = Lexer(source)._lex_statement
    i = 0
    for span in spans:
        fresh = span.digest not in known
        while i < len(stmts) and stmts[i].line <= span.end_line:
            if fresh:
                lex(stmts[i].text, stmts[i].line)
            i += 1
    return spans
