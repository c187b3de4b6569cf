"""Shared helper for the paper benchmarks.

Every ``bench_*.py`` here regenerates one artifact of the paper (table /
figure / series) and asserts its qualitative *shape* before timing, so
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction run.
The regenerated artifacts are also written to ``benchmarks/out/`` for
side-by-side comparison with the paper.  The service's end-to-end and
per-layer performance is measured by the one harness in
``benchmarks/ped/`` (see its README), not here.
"""

from __future__ import annotations

import pathlib

OUT_DIR = pathlib.Path(__file__).parent / "out"


def save_artifact(name: str, text: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(text)
