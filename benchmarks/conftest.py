"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper artifact (table / figure / series)
and asserts its qualitative *shape* before timing, so ``pytest
benchmarks/ --benchmark-only`` doubles as the reproduction run.  The
regenerated artifacts are also written to ``benchmarks/out/`` for
side-by-side comparison with the paper.
"""

from __future__ import annotations

import itertools
import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def save_artifact(name: str, text: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(text)


def names_owned_by(ring, shard, n, prefix="prog"):
    """``n`` program names whose ring owner is ``shard``.  Pick a corpus's
    names this way after the fleet started: the ring hashes ephemeral
    ports, so fixed names can all land on one shard."""

    names = (f"{prefix}{i:03d}" for i in itertools.count())
    owned = (k for k in names if ring.preference(k)[0] == shard)
    return list(itertools.islice(owned, n))
