"""Transformation framework: Advice, contexts, and the base protocol.

"The system advises whether the transformation is applicable (is
syntactically correct), safe (preserves the semantics of the program) and
profitable (contributes to parallelization)."  :class:`Advice` carries
those three verdicts with human-readable reasons; the editor displays them
verbatim in the transformation dialog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..dependence.driver import LoopInfo, UnitAnalysis
from ..fortran.ast_nodes import DoLoop, ProcedureUnit, Stmt


@dataclass
class Advice:
    """Power-steering diagnosis for one transformation request."""

    applicable: bool
    safe: bool
    profitable: bool
    reasons: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.applicable and self.safe

    @staticmethod
    def no(reason: str) -> "Advice":
        return Advice(False, False, False, [reason])

    @staticmethod
    def unsafe(reason: str) -> "Advice":
        return Advice(True, False, False, [reason])

    @staticmethod
    def yes(*reasons: str, profitable: bool = True) -> "Advice":
        return Advice(True, True, profitable, list(reasons))

    def describe(self) -> str:
        verdict = []
        verdict.append("applicable" if self.applicable else "not applicable")
        verdict.append("safe" if self.safe else "UNSAFE")
        verdict.append("profitable" if self.profitable else "questionable profit")
        text = ", ".join(verdict)
        if self.reasons:
            text += ": " + "; ".join(self.reasons)
        return text


@dataclass
class TransformContext:
    """Everything a transformation needs: the unit and its analysis.

    Analyses go stale after ``apply``.  The editor session then writes
    the rewritten unit back into the source and reanalyzes through its
    incremental engine, as after an edit confined to that unit (Ped's
    incremental-update behaviour).  ``source_file`` gives
    interprocedural transformations (embedding) access to callee
    definitions, and lets extraction add a unit.
    """

    unit: ProcedureUnit
    analysis: UnitAnalysis
    source_file: Optional[object] = None  # repro.fortran.SourceFile


class Transformation:
    """Base protocol.  Subclasses set ``name`` and implement both hooks."""

    name: str = "?"

    def diagnose(self, ctx: TransformContext, **kwargs) -> Advice:
        raise NotImplementedError

    def apply(self, ctx: TransformContext, **kwargs) -> str:
        """Perform the rewrite in place; returns a short change summary.

        Callers must have obtained an ``Advice`` with ``ok`` first —
        ``apply`` raises :class:`TransformError` otherwise.

        The contract the editor's write-back relies on
        (:meth:`~repro.editor.session.PedSession.write_back`): ``apply``
        rewrites ``ctx.unit``, may append new units to
        ``ctx.source_file``, and touches no other unit.  Only those
        units are printed back and reparsed; every other routine keeps
        its text and its cached analysis.
        """

        raise NotImplementedError


class TransformError(Exception):
    """Raised when apply() is invoked for an inapplicable/unsafe request."""


def find_parent(
    unit: ProcedureUnit, target: Stmt
) -> Optional[Tuple[List[Stmt], int]]:
    """Locate the statement list containing ``target`` (and its index)."""

    def search(body: List[Stmt]) -> Optional[Tuple[List[Stmt], int]]:
        for i, st in enumerate(body):
            if st is target:
                return (body, i)
            for blk in st.blocks():
                got = search(blk)
                if got is not None:
                    return got
        return None

    return search(unit.body)


def perfect_nest(loop: DoLoop) -> List[DoLoop]:
    """The maximal perfect nest rooted at ``loop`` (outermost first)."""

    nest = [loop]
    body = loop.body
    while len(body) == 1 and isinstance(body[0], DoLoop):
        nest.append(body[0])
        body = body[0].body
    return nest


#: Obstacle prefixes (``analyze_loop``'s wording) that no dependence
#: marking removes.
_HARD_OBSTACLES = ("I/O statement", "premature exit", "branch out of loop")


def hard_obstacles(info: LoopInfo) -> List[str]:
    """The loop's I/O, premature-exit and branch-out obstacles.  Running
    its iterations concurrently, backwards, interchanged or distributed
    changes what the program reads or prints, or where it stops."""

    return [o for o in info.obstacles if o.startswith(_HARD_OBSTACLES)]
