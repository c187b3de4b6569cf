"""How much lexing an edit costs, and that rejected edits still report the
error a whole-file lex would.

The splitter lexes only spans the engine has not parsed before, and the
engine remembers its last two splits, so a one-line edit lexes the
edited unit twice (split check, then reparse) and the invalidation diff
lexes nothing.
"""

import pytest

from repro.fortran.errors import LexError
from repro.fortran.lexer import Lexer, logical_lines, tokenize
from repro.incremental import split_units
from repro.service import PedServer
from repro.workloads.generator import generate_program


@pytest.fixture
def server():
    srv = PedServer(max_workers=1)
    yield srv
    srv.close()


def _call(srv, op, **params):
    reply = srv.execute({"id": 1, "op": op, **params})
    assert reply["ok"], reply
    return reply["result"]


def _stencil_line(source: str, routine: str) -> int:
    """1-based line of the stencil update inside ``routine``."""

    lines = source.splitlines()
    start = lines.index(f"      subroutine {routine}(x, k)")
    return next(
        i + 1
        for i in range(start, len(lines))
        if lines[i].lstrip().startswith("x(i) = x(i) +")
    )


def test_one_line_edit_lexes_only_the_edited_unit(server, monkeypatch):
    source = generate_program(n_routines=60)
    _call(server, "open", session="s", source=source)
    line = _stencil_line(source, "upd7")
    calls = []
    real = Lexer._lex_statement

    def counting(self, text, lineno):
        calls.append(lineno)
        return real(self, text, lineno)

    monkeypatch.setattr(Lexer, "_lex_statement", counting)
    text = source.splitlines()[line - 1] + " + 1.0"
    _call(server, "edit", session="s", start=line, end=line, text=text)
    edit_calls, calls[:] = list(calls), []
    engine = server.sessions["s"].session.engine
    current = server.sessions["s"].session.source
    (unit,) = [
        span
        for span in split_units(current)
        if span.start_line <= line <= span.end_line
    ]
    unit_stmts = len(logical_lines(unit.text))
    assert 0 < len(edit_calls) <= 2 * unit_stmts
    assert all(unit.start_line <= n <= unit.end_line for n in edit_calls)

    calls.clear()
    assert engine.changed_units(source, current) == {"upd7"}
    assert calls == []


def _bad_edit(source: str):
    """An edit that leaves a parse error in ``upd0`` and an unterminated
    string in ``upd1`` (same line count, so later units do not move)."""

    first = _stencil_line(source, "upd0")
    last = _stencil_line(source, "upd1")
    block = source.splitlines()[first - 1 : last]
    block[0] = "         x(i) = (x(i) +"
    block[-1] = "         x(i) = 'unterminated"
    bad = source.splitlines()
    bad[first - 1 : last] = block
    with pytest.raises(LexError) as whole_file:
        tokenize("\n".join(bad) + "\n")
    return first, last, "\n".join(block), f"edit rejected: {whole_file.value}"


def _assert_rejected_like_whole_file_lex(server):
    before = {
        op: _call(server, op, session="s") for op in ("fingerprint", "source")
    }
    first, last, text, expected = _bad_edit(before["source"]["source"])
    reply = server.execute(
        {
            "id": 2,
            "op": "edit",
            "session": "s",
            "start": first,
            "end": last,
            "text": text,
        }
    )
    assert not reply["ok"]
    assert reply["error"]["message"] == expected
    for op, result in before.items():
        assert _call(server, op, session="s") == result


def test_rejected_edit_names_the_lex_error(server):
    _call(server, "open", session="s", source=generate_program(n_routines=4))
    _assert_rejected_like_whole_file_lex(server)
    # Again: a split that raised is never remembered, so the same edit
    # must be lexed and rejected the same way.
    _assert_rejected_like_whole_file_lex(server)


def test_rejected_edit_after_apply_names_the_lex_error(server):
    _call(server, "open", session="s", source=generate_program(n_routines=4))
    _call(server, "apply", session="s", transform="parallelize",
          unit="scale", loop=0)
    assert "c$par doall" in _call(server, "source", session="s")["source"]
    _assert_rejected_like_whole_file_lex(server)
