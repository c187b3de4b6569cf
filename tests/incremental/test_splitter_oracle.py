"""Parity of ``split_units`` with the token-walking reference splitter.

Every suite program and a range of generated programs are mutated by
seeded random inserts, deletes and replacements of junk lines chosen to
sit on the splitter's edge cases (``END`` spellings, labels, inline
comments, continuations, directives, lex errors).  Both splitters must
return identical spans and digests, or raise the same exception type
with the same message.  Skipping the lexing of ``known`` spans must
never change the outcome either.
"""

import random

import pytest

from repro.incremental import split_units
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


def _mutate(rng: random.Random, lines):
    lines = list(lines)
    for _ in range(rng.randint(1, 4)):
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


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_split_matches_reference_on_mutated_sources(name):
    source = PROGRAMS[name]
    original = {s.digest for s in split_units(source)}
    rng = random.Random(name)
    mismatches = []
    for _ in range(VARIANTS):
        mutated = _mutate(rng, source.splitlines())
        want = _outcome(reference_split_units, mutated)
        got = {
            "none known": _outcome(split_units, mutated),
            # What an engine that analyzed the unmutated program knows.
            "original known": _outcome(
                split_units, mutated, known=original
            ),
        }
        if isinstance(want, list):
            got["result known"] = _outcome(
                split_units, mutated, known={span[3] for span in want}
            )
        for label, outcome in got.items():
            if outcome != want:
                mismatches.append((label, mutated, want, outcome))
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
