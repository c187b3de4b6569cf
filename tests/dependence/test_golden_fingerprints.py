"""Committed fingerprints of whole-program analyses.

Parity between the production pair walk and the reference walk cannot
see a bug in code both share (subscript classification, the SIV tests,
scalar edges).  These digests pin the results themselves: a change that
moves one must say why and record the new value in
``golden_fingerprints.json``.
"""

import json
from pathlib import Path

import pytest

from repro.fortran import parse_and_bind
from repro.incremental.fingerprint import fingerprint_digest
from repro.interproc import FeatureSet, analyze_program
from repro.workloads import SUITE
from repro.workloads.generator import generate_program

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_fingerprints.json")).read_text()
)


def _digest(source: str) -> str:
    return fingerprint_digest(
        analyze_program(parse_and_bind(source), FeatureSet())
    )


def test_golden_set_covers_the_suite():
    assert sorted(GOLDEN["suite"]) == sorted(SUITE)


@pytest.mark.parametrize("name", sorted(GOLDEN["suite"]))
def test_suite_program_fingerprint(name):
    assert _digest(SUITE[name].source) == GOLDEN["suite"][name]


@pytest.mark.parametrize("size", sorted(GOLDEN["generated"]))
def test_generated_program_fingerprint(size):
    routines, fields = (int(x) for x in size.split("x"))
    source = generate_program(routines, fields)
    assert _digest(source) == GOLDEN["generated"][size]
