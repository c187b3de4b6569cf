"""Incremental reanalysis equals a cold one after random edits.

The engine re-folds a caller's summaries only when a callee's summary
came out different, so an edit whose effect on callers that equality
missed would leave a stale answer behind.  These tests hunt for such
edits: seeded random edit sequences (formal reorders, integer-literal
bumps, comment insertions) over every suite program, two generated
programs and a two-unit call, with the incremental fingerprint checked
against a fresh engine's after every step.  Seeds are fixed, so the
sweep is deterministic.
"""

import random
import re

import pytest

from repro.fortran.errors import FortranError
from repro.incremental import AnalysisEngine, program_fingerprint
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

#: ``sub`` binds its scalar formals by position, so reordering them
#: moves the section ``main``'s call touches while every summary of
#: ``sub`` (written in formal names) stays equal.
FORMAL_SWAP = (
    "      program main\n"
    "      real a(100)\n"
    "      n = 20\n"
    "      m = 2\n"
    "      do j = 1, 10\n"
    "         call sub(a(1), n, m)\n"
    "         a(15 + j) = a(j) + 1.0\n"
    "      enddo\n"
    "      end\n"
    "      subroutine sub(x, k, l)\n"
    "      real x(100)\n"
    "      do i = k, l\n"
    "         x(i) = x(i) + 1.0\n"
    "      enddo\n"
    "      end\n"
)

PROGRAMS = {
    **{name: SUITE[name].source for name in SUITE},
    "generated(5)": generate_program(5),
    "generated(12, 3)": generate_program(12, 3),
    "formal-swap": FORMAL_SWAP,
}
SEEDS = (0, 1)
STEPS = 12

_HEADER = re.compile(r"^(\s+subroutine\s+\w+\s*\()([^)]*)(\).*)$", re.I)
_INT = re.compile(r"(?<![\w.])\d+(?![\w.])")
_STATEMENT_COLUMN = 6  # columns 1-6 hold labels and continuation marks


def _shuffle_formals(lines, rng):
    headers = [
        i
        for i, text in enumerate(lines)
        if (m := _HEADER.match(text)) and "," in m.group(2)
    ]
    if not headers:
        return None
    i = rng.choice(headers)
    m = _HEADER.match(lines[i])
    formals = [f.strip() for f in m.group(2).split(",")]
    order = list(formals)
    while order == formals:
        rng.shuffle(order)
    out = list(lines)
    out[i] = m.group(1) + ", ".join(order) + m.group(3)
    return out


def _bump_literal(lines, rng):
    spots = [
        (i, lit.span())
        for i, text in enumerate(lines)
        if text and text[0] not in "cC*!"
        for lit in _INT.finditer(text, _STATEMENT_COLUMN)
    ]
    if not spots:
        return None
    i, (a, b) = rng.choice(spots)
    out = list(lines)
    out[i] = out[i][:a] + str(int(out[i][a:b]) + 1) + out[i][b:]
    return out


def _insert_comment(lines, rng):
    out = list(lines)
    out.insert(rng.randrange(len(lines) + 1), "c edit-parity probe")
    return out


EDITS = (_shuffle_formals, _bump_literal, _insert_comment)


def _cold_fingerprint(source):
    """A fresh engine's fingerprint, or ``None`` if it rejects ``source``."""

    try:
        _, pa = AnalysisEngine().analyze(source)
    except FortranError:
        return None
    return program_fingerprint(pa)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_incremental_matches_cold_across_random_edits(name, seed):
    rng = random.Random(f"{name}/{seed}")
    lines = PROGRAMS[name].splitlines()
    engine = AnalysisEngine()
    engine.analyze(PROGRAMS[name])
    for step in range(STEPS):
        edit = rng.choice(EDITS)
        candidate = edit(lines, rng)
        if candidate is None:
            continue
        source = "\n".join(candidate) + "\n"
        cold = _cold_fingerprint(source)
        if cold is None:
            continue
        _, pa = engine.analyze(source)
        assert program_fingerprint(pa) == cold, (step, edit.__name__)
        lines = candidate


def test_formal_reorder_reaches_the_caller():
    engine = AnalysisEngine()
    _, before = engine.analyze(FORMAL_SWAP)
    assert all(d.var != "a" for d in before.units["main"].graph.edges)
    swapped = FORMAL_SWAP.replace("sub(x, k, l)", "sub(x, l, k)")
    _, pa = engine.analyze(swapped)
    _, cold = AnalysisEngine().analyze(swapped)
    assert program_fingerprint(pa) == program_fingerprint(cold)
    # Now the call covers a(2:20), which the loop's a(15 + j) overlaps:
    # the j loop carries dependences on a and must not stay DOALL.
    assert any(d.var == "a" for d in pa.units["main"].graph.edges)
    assert not any(
        info.parallelizable for info in pa.units["main"].loop_info.values()
    )
