"""Unit-span splitting: coverage, line preservation, digest stability."""

import pytest

from repro.fortran.parser import parse_source
from repro.fortran.symbols import parse_and_bind
from repro.incremental import split_units
from repro.workloads import SUITE


@pytest.mark.parametrize("name", sorted(SUITE))
def test_spans_cover_source_exactly(name):
    source = SUITE[name].source
    spans = split_units(source)
    rebuilt = "".join(span.text for span in spans)
    expected = source if source.endswith("\n") else source + "\n"
    assert rebuilt == expected
    # Contiguous, 1-based, inclusive.
    line = 1
    for span in spans:
        assert span.start_line == line
        assert span.end_line >= span.start_line
        line = span.end_line + 1
    assert line == len(source.splitlines()) + 1


@pytest.mark.parametrize("name", sorted(SUITE))
def test_padded_span_reparse_matches_full_parse(name):
    source = SUITE[name].source
    full = parse_and_bind(source)
    spans = split_units(source)
    assert len(spans) == len(full.units)
    for span, want in zip(spans, full.units):
        padded = "\n" * (span.start_line - 1) + span.text
        sub = parse_source(padded)
        assert len(sub.units) == 1
        got = sub.units[0]
        assert got.name == want.name
        assert got.kind == want.kind
        assert got.line == want.line


def test_one_unit_per_span():
    src = (
        "      subroutine a(x)\n"
        "      x = 1\n"
        "      end\n"
        "c a comment between units\n"
        "      subroutine b(y)\n"
        "      y = 2\n"
        "      end\n"
    )
    spans = split_units(src)
    assert [(s.start_line, s.end_line) for s in spans] == [(1, 3), (4, 7)]


def test_enddo_endif_are_not_unit_terminators():
    src = (
        "      subroutine a(x, n)\n"
        "      do i = 1, n\n"
        "         if (x > 0) then\n"
        "            x = x + 1\n"
        "         end if\n"
        "      end do\n"
        "      end\n"
    )
    spans = split_units(src)
    assert len(spans) == 1
    assert spans[0].end_line == 7


def test_trailing_comments_attach_to_last_unit():
    src = "      subroutine a(x)\n      x = 1\n      end\nc trailing note\n"
    spans = split_units(src)
    assert len(spans) == 1
    assert spans[0].end_line == 4


def test_digest_depends_on_text_alone():
    base = "      subroutine a(x)\n      x = 1\n      end\n"
    (span,) = split_units(base)
    (edited,) = split_units(base.replace("x = 1", "x = 2"))
    assert edited.digest != span.digest
    # The same text shifted down (the unit moved) keeps its digest: the
    # engine moves the cached lines instead of parsing it again.
    shifted = split_units("      subroutine z(q)\n      q = 0\n      end\n" + base)
    assert shifted[1].text == span.text
    assert shifted[1].start_line == 4
    assert shifted[1].digest == span.digest
    # A spliced split keeps a moved span's digest as well.
    two = base + base.replace("a(x)", "b(x)")
    before = split_units(two)
    after = split_units("c note\n" + two, previous=(two, before))
    assert [s.start_line for s in after] == [1, 5]
    assert after[1].digest == before[1].digest
    # And resplitting identical source is stable.
    (again,) = split_units(base)
    assert again.digest == span.digest


def test_empty_and_comment_only_sources():
    assert split_units("") == []
    spans = split_units("c just a comment\nc another\n")
    assert len(spans) == 1
    assert parse_source(spans[0].text).units == []
