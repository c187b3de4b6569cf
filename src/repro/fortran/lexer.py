"""Tokenizer for the Fortran 77 subset understood by the reproduction.

The ParaScope Editor worked on fixed-form Fortran 77.  This lexer accepts
both classic fixed form (comment character in column 1, labels in columns
1-5, continuation mark in column 6) and a relaxed free form (``!`` comments,
trailing ``&`` continuations) so that tests and examples can be written
naturally.  The output is a flat token stream with line/column positions;
statement boundaries are represented by explicit ``NEWLINE`` tokens and an
optional leading ``LABEL`` token per statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from .errors import LexError

# Token kinds ---------------------------------------------------------------

NAME = "NAME"
INT = "INT"
REAL = "REAL"
STRING = "STRING"
OP = "OP"
LABEL = "LABEL"  # numeric statement label in the label field
NEWLINE = "NEWLINE"
EOF = "EOF"

#: Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = [
    "**",
    "//",
    "==",
    "/=",
    "<=",
    ">=",
]

_SINGLE_OPS = set("+-*/(),=<>:$")

#: Dotted operators of Fortran 77 (``X .LT. Y``) mapped to canonical
#: symbolic spellings used throughout the analyses.
_DOT_OPS = {
    ".lt.": "<",
    ".le.": "<=",
    ".gt.": ">",
    ".ge.": ">=",
    ".eq.": "==",
    ".ne.": "/=",
    ".and.": ".and.",
    ".or.": ".or.",
    ".not.": ".not.",
    ".eqv.": ".eqv.",
    ".neqv.": ".neqv.",
    ".true.": ".true.",
    ".false.": ".false.",
}


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``kind`` is one of the module-level kind constants; ``value`` is the
    canonical text (names are lower-cased, dotted operators are mapped to
    their symbolic spelling).
    """

    kind: str
    value: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def _is_fixed_comment(raw: str) -> bool:
    """A fixed-form comment line.

    Column 1 ``*`` always marks a comment.  Column 1 ``C``/``c`` marks a
    comment only when it cannot begin a keyword: the next character must not
    be alphanumeric (so ``call`` / ``common`` / ``continue`` written at
    column 1 still parse as code in relaxed free form).
    """

    if not raw:
        return False
    if raw[0] == "*":
        return True
    if raw[0] in "Cc":
        return len(raw) == 1 or not (raw[1].isalnum() or raw[1] == "_")
    return False


def _strip_inline_comment(text: str) -> str:
    """Remove a trailing ``!`` comment, respecting quoted strings."""

    in_str = False
    for i, ch in enumerate(text):
        if ch == "'":
            in_str = not in_str
        elif ch == "!" and not in_str:
            return text[:i]
    return text


class _LogicalLine:
    """One logical statement after continuation splicing."""

    __slots__ = ("text", "line", "label")

    def __init__(self, text: str, line: int, label: Optional[int]) -> None:
        self.text = text
        self.line = line
        self.label = label


def _logical_lines(source: str) -> Iterator[_LogicalLine]:
    """Splice physical lines into logical statements.

    Handles fixed-form comments/labels/continuations and free-form ``&``
    continuations.  Directive comments (``C$...`` / ``CDIR$``) are dropped;
    the printer re-inserts parallel directives from AST flags instead.
    """

    pending: Optional[_LogicalLine] = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        if not raw.strip():
            continue
        stripped = raw.strip()
        # Parallel directives survive as pseudo-statements so the DOALL
        # marking round-trips through print/parse.
        if stripped.lower().startswith("c$par "):
            if pending is not None:
                yield pending
                pending = None
            # "c$par doall …" → pseudo-statement "doall …".
            yield _LogicalLine(stripped[6:].strip(), lineno, None)
            continue
        # Full-line comments: fixed-form column-1 marker or leading '!'.
        if _is_fixed_comment(raw) or stripped.startswith("!"):
            continue
        text = _strip_inline_comment(raw)
        if not text.strip():
            continue
        # Fixed-form continuation: blank label field, non-blank/non-'0' col 6.
        if (
            len(text) >= 6
            and text[:5].strip() == ""
            and text[5] not in (" ", "0")
            and pending is not None
        ):
            pending.text += " " + text[6:].strip()
            continue
        if pending is not None:
            yield pending
            pending = None
        label: Optional[int] = None
        body = text
        # Fixed-form label field: columns 1-5 numeric.
        lead = text[:5]
        if lead.strip().isdigit() and (len(text) <= 5 or text[5] in " 0"):
            label = int(lead.strip())
            body = text[6:] if len(text) > 6 else ""
        else:
            # Relaxed: "10 continue" with label at line start.
            ls = text.lstrip()
            i = 0
            while i < len(ls) and ls[i].isdigit():
                i += 1
            if i and i < len(ls) and ls[i] == " ":
                label = int(ls[:i])
                body = ls[i:]
        pending = _LogicalLine(body.strip(), lineno, label)
    if pending is not None:
        yield pending


def _splice_free_continuations(lines: List[_LogicalLine]) -> List[_LogicalLine]:
    """Merge logical lines that end in ``&`` with their successors."""

    out: List[_LogicalLine] = []
    for ll in lines:
        if out and out[-1].text.endswith("&"):
            out[-1].text = out[-1].text[:-1].rstrip() + " " + ll.text
        else:
            out.append(ll)
    return out


def logical_lines(source: str) -> List[_LogicalLine]:
    """Every statement of ``source`` in file order, fixed-form and
    free-form continuations spliced: exactly what :class:`Lexer`
    tokenizes, one :meth:`Lexer._lex_statement` call per entry."""

    return _splice_free_continuations(list(_logical_lines(source)))


class Lexer:
    """Tokenize Fortran source into a list of :class:`Token`.

    Usage::

        tokens = Lexer(source).tokens()
    """

    def __init__(self, source: str) -> None:
        self.source = source

    def tokens(self) -> List[Token]:
        toks: List[Token] = []
        lines = logical_lines(self.source)
        for ll in lines:
            if ll.label is not None:
                toks.append(Token(LABEL, str(ll.label), ll.line, 1))
            toks.extend(self._lex_statement(ll.text, ll.line))
            toks.append(Token(NEWLINE, "\n", ll.line, len(ll.text) + 1))
        toks.append(Token(EOF, "", lines[-1].line + 1 if lines else 1, 1))
        return toks

    # -- statement-level scanning ------------------------------------------

    def _lex_statement(self, text: str, line: int) -> List[Token]:
        toks: List[Token] = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            col = i + 1
            if ch in " \t":
                i += 1
                continue
            if ch == "'":
                j = i + 1
                buf = []
                while j < n:
                    if text[j] == "'":
                        if j + 1 < n and text[j + 1] == "'":
                            buf.append("'")
                            j += 2
                            continue
                        break
                    buf.append(text[j])
                    j += 1
                else:
                    raise LexError("unterminated string literal", line, col)
                toks.append(Token(STRING, "".join(buf), line, col))
                i = j + 1
                continue
            if ch == ".":
                matched = False
                low = text[i : i + 7].lower()
                for dotted, canon in _DOT_OPS.items():
                    if low.startswith(dotted):
                        toks.append(Token(OP, canon, line, col))
                        i += len(dotted)
                        matched = True
                        break
                if matched:
                    continue
                if i + 1 < n and text[i + 1].isdigit():
                    tok, i = self._lex_number(text, i, line)
                    toks.append(tok)
                    continue
                raise LexError(f"unexpected character {ch!r}", line, col)
            if ch.isdigit():
                tok, i = self._lex_number(text, i, line)
                toks.append(tok)
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(Token(NAME, text[i:j].lower(), line, col))
                i = j
                continue
            two = text[i : i + 2]
            if two in _MULTI_OPS:
                toks.append(Token(OP, two, line, col))
                i += 2
                continue
            if ch in _SINGLE_OPS:
                toks.append(Token(OP, ch, line, col))
                i += 1
                continue
            raise LexError(f"unexpected character {ch!r}", line, col)
        return toks

    def _lex_number(self, text: str, i: int, line: int) -> tuple:
        """Scan an integer or real literal starting at ``text[i]``."""

        n = len(text)
        col = i + 1
        j = i
        is_real = False
        while j < n and text[j].isdigit():
            j += 1
        if j < n and text[j] == ".":
            # Not a dotted operator like 1.eq. — require digit or non-letter.
            rest = text[j : j + 5].lower()
            if not any(rest.startswith(d) for d in _DOT_OPS):
                is_real = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
        if j < n and text[j] in "eEdD":
            k = j + 1
            if k < n and text[k] in "+-":
                k += 1
            if k < n and text[k].isdigit():
                is_real = True
                j = k
                while j < n and text[j].isdigit():
                    j += 1
        value = text[i:j].lower().replace("d", "e")
        kind = REAL if is_real else INT
        return Token(kind, value, line, col), j


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` and return the token list."""

    return Lexer(source).tokens()
