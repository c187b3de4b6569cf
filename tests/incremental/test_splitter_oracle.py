"""Parity of ``split_units`` with the token-walking reference splitter.

Every suite program and a range of generated programs are mutated by
seeded random inserts, deletes and replacements of junk lines chosen to
sit on the splitter's edge cases (``END`` spellings, labels, inline
comments, continuations, directives, lex errors).  Both splitters must
return identical spans and digests, or raise the same exception type
with the same message.  Each variant is also split by splicing: from
its base program's split and from the split of the last variant that
split cleanly (what an engine holds after a rejected edit), and along a
chain where each clean variant is mutated again.  Skipping the lexing
of ``known`` spans must never change any of these outcomes either.
"""

import random

import pytest

from repro.incremental import UnitSpan, split_units
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

from .reference_split import reference_split_units

#: Junk insertions; multi-line entries are inserted as a block.
JUNK = [
    ["      end"],
    ["      END"],
    ["\tend"],
    ["  10  end"],
    ["      end ! note"],
    ["      end &", "  10"],
    ["     &  x = 1"],
    ["      end do"],
    ["      enddo"],
    ["c$par doall i"],
    ["      x = 'unterminated"],
    ["      y = 3 @ 4"],
]

VARIANTS = 60

PROGRAMS = {f"suite:{name}": SUITE[name].source for name in sorted(SUITE)}
for _routines in (1, 5, 30):
    for _fields in (1, 3):
        PROGRAMS[f"gen:{_routines}x{_fields}"] = generate_program(
            n_routines=_routines, n_fields=_fields
        )


def _mutate(rng: random.Random, lines, edits=None):
    lines = list(lines)
    for _ in range(edits or rng.randint(1, 4)):
        op = rng.choice(("insert", "delete", "replace"))
        if op != "insert" and lines:
            at = rng.randrange(len(lines))
            lines[at : at + 1] = [] if op == "delete" else rng.choice(JUNK)
        else:
            at = rng.randrange(len(lines) + 1)
            lines[at:at] = rng.choice(JUNK)
    return "\n".join(lines) + "\n"


def _outcome(split, source, **kwargs):
    try:
        return [
            (s.start_line, s.end_line, s.text, s.digest)
            for s in split(source, **kwargs)
        ]
    except Exception as exc:  # noqa: BLE001 — the outcome is the error
        return (type(exc).__name__, str(exc))


def _splits(source, want, base, previous, whole=True):
    """Every way to split ``source``: with each ``known`` set, spliced
    from each of the ``previous`` splits and (``whole``) not spliced."""

    knowns = {"none known": (), "base known": base[2]}
    if isinstance(want, list):
        knowns["result known"] = {span[3] for span in want}
    got = {}
    for label, known in knowns.items():
        if whole:
            got[label] = _outcome(split_units, source, known=known)
        for origin, (old, spans, _digests) in previous.items():
            got[f"{label}, spliced from {origin}"] = _outcome(
                split_units, source, known=known, previous=(old, spans)
            )
    return got


def _clean_split(source, outcome):
    spans = [UnitSpan(*span) for span in outcome]
    return source, spans, {span.digest for span in spans}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_split_matches_reference_on_mutated_sources(name):
    source = PROGRAMS[name]
    base = _clean_split(source, _outcome(reference_split_units, source))
    last_clean = base
    rng = random.Random(name)
    mismatches = []
    for _ in range(VARIANTS):
        mutated = _mutate(rng, source.splitlines())
        want = _outcome(reference_split_units, mutated)
        got = _splits(
            mutated, want, base, {"base": base, "previous": last_clean}
        )
        for label, outcome in got.items():
            if outcome != want:
                mismatches.append((label, mutated, want, outcome))
        if isinstance(want, list):
            last_clean = _clean_split(mutated, want)
    assert not mismatches, mismatches[0]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_splice_follows_a_chain_of_edits(name):
    source = PROGRAMS[name]
    current = _clean_split(source, _outcome(reference_split_units, source))
    base = current
    rng = random.Random(f"chain:{name}")
    mismatches = []
    for _ in range(VARIANTS):
        mutated = _mutate(rng, current[0].splitlines(), edits=1)
        want = _outcome(reference_split_units, mutated)
        got = _splits(
            mutated, want, base, {"previous": current}, whole=False
        )
        for label, outcome in got.items():
            if outcome != want:
                mismatches.append((label, mutated, want, outcome))
        if isinstance(want, list):
            current = _clean_split(mutated, want)
    assert not mismatches, mismatches[0]


def test_free_form_end_spliced_with_label_only_line_closes_a_unit():
    # "end &" + "  10" splices to the text "end " (trailing blank).
    source = (
        "      subroutine a(x)\n      x = 1\n      end &\n  10\n"
        "      subroutine b(y)\n      y = 2\n      end\n"
    )
    spans = split_units(source)
    assert [(s.start_line, s.end_line) for s in spans] == [(1, 3), (4, 7)]
    assert spans == reference_split_units(source)
