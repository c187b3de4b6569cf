"""Structural fingerprints of analysis results.

Engine-cached results must be *bit-identical* to a from-scratch
``analyze_program`` — except for dependence edge ids, which are edge
positions in insertion order and carry no meaning.  These helpers project
a :class:`ProgramAnalysis` onto a comparable value that captures every
user-visible artifact (edges, vectors, markings, verdicts, privatization
and idiom results, inherited constants) while ignoring object identity.
The parity tests compare engine output against the reference pipeline
with these.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from ..dependence.driver import UnitAnalysis
from ..dependence.graph import Dependence
from ..interproc.program import ProgramAnalysis


def edge_key(dep: Dependence) -> tuple:
    """Everything about an edge except its meaningless numeric id."""

    return (
        dep.kind,
        dep.var,
        dep.src_sid,
        dep.dst_sid,
        dep.vector_str(),
        dep.level,
        dep.marking,
        dep.test,
        dep.src_line,
        dep.dst_line,
        dep.reason,
        tuple(dep.nest_sids),
    )


def unit_fingerprint(ua: UnitAnalysis) -> tuple:
    edges = tuple(sorted(edge_key(d) for d in ua.graph.edges))
    loops = tuple(
        (nest.loop.sid, nest.loop.var, nest.loop.line, nest.depth)
        for nest in ua.loops
    )
    info = tuple(
        sorted(
            (
                sid,
                tuple(li.obstacles),
                li.parallelizable,
                tuple(
                    sorted((p.name, p.needs_last_value) for p in li.privatizable)
                ),
                tuple(sorted(li.privatizable_arrays)),
                tuple(sorted(r.var for r in li.reductions)),
                tuple(sorted(iv.name for iv in li.inductions)),
                tuple(sorted(edge_key(d) for d in li.carried)),
            )
            for sid, li in ua.loop_info.items()
        )
    )
    return (ua.unit.name, edges, loops, info)


def program_fingerprint(pa: ProgramAnalysis) -> Tuple[tuple, tuple]:
    units = tuple(
        unit_fingerprint(ua) for _, ua in sorted(pa.units.items())
    )
    constants = tuple(
        (name, tuple(sorted(consts.items())))
        for name, consts in sorted(pa.ip_constants.items())
    )
    return (units, constants)


def fingerprint_digest(pa: ProgramAnalysis) -> str:
    """Wire-friendly digest of :func:`program_fingerprint`.

    The service's ``fingerprint`` op ships this instead of the nested
    tuple, so the multi-mode parity suite (serial vs streamed vs
    multi-process) can compare analyses across process boundaries with
    one short string.
    """

    return hashlib.sha1(repr(program_fingerprint(pa)).encode()).hexdigest()
