"""Reference unit splitter: the parity oracle for ``split_units``.

This is the original token-walking splitter.  It tokenizes the whole
source and ends a unit at every statement whose token list is exactly
the name ``end``.  The production splitter finds the same boundaries
from logical lines and lexes only spans it has not seen before; the
property tests require both to agree on spans, digests and errors.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.fortran import lexer
from repro.fortran.lexer import tokenize
from repro.incremental.splitter import UnitSpan


def _make_span(lines: List[str], start: int, stop: int) -> UnitSpan:
    text = "\n".join(lines[start - 1 : stop]) + "\n"
    digest = hashlib.sha1(f"{start}\n{text}".encode()).hexdigest()
    return UnitSpan(start, stop, text, digest)


def reference_split_units(source: str) -> List[UnitSpan]:
    lines = source.splitlines()
    if not lines:
        return []
    ends: List[int] = []
    last_stmt_line = 0
    stmt: List[lexer.Token] = []
    for tok in tokenize(source):
        if tok.kind in (lexer.NEWLINE, lexer.EOF):
            if stmt:
                last_stmt_line = max(last_stmt_line, stmt[0].line)
                if (
                    len(stmt) == 1
                    and stmt[0].kind == lexer.NAME
                    and stmt[0].value == "end"
                ):
                    ends.append(stmt[0].line)
            stmt = []
        elif tok.kind != lexer.LABEL:
            stmt.append(tok)

    if not ends:
        return [_make_span(lines, 1, len(lines))]

    spans: List[UnitSpan] = []
    start = 1
    for i, end_line in enumerate(ends):
        stop = end_line
        if i == len(ends) - 1 and last_stmt_line <= end_line:
            stop = len(lines)  # trailing comments belong to the last unit
        spans.append(_make_span(lines, start, stop))
        start = stop + 1
    if last_stmt_line > ends[-1]:
        spans.append(_make_span(lines, start, len(lines)))
    return spans
