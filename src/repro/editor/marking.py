"""Dependence marking: proven / pending / accepted / rejected.

"The system marks each dependence as either proven, pending, accepted or
rejected.  If Ped proves a dependence exists with an exact dependence
test, the dependence is marked as proven; otherwise it is marked pending.
Users may sharpen Ped's dependence analysis by marking a pending
dependence as accepted or rejected."

User markings must survive reanalysis (edits, transformations, new
assertions rebuild the dependence graph from scratch), so they are stored
under a *stable identity key* — kind, variable, endpoint lines and
vector — and re-applied to every fresh graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..dependence.graph import (
    ACCEPTED,
    Dependence,
    DependenceGraph,
    PENDING,
    PROVEN,
    REJECTED,
)

#: Stable identity of a dependence across reanalysis.
DepKey = Tuple[str, str, int, int, str]


def key_of(dep: Dependence) -> DepKey:
    return (dep.kind, dep.var, dep.src_line, dep.dst_line, dep.vector_str())


class MarkingError(ValueError):
    """Raised for invalid marking transitions."""


@dataclass
class MarkingStore:
    """User dependence markings, keyed stably."""

    marks: Dict[DepKey, str] = field(default_factory=dict)

    def mark(self, dep: Dependence, marking: str) -> None:
        """Apply a user marking to a dependence.

        Only *pending* dependences may be accepted or rejected: a proven
        dependence really exists and Ped refuses to discard it (the user
        must edit the program instead).  Re-marking an accepted/rejected
        edge is allowed (users change their minds); marking back to
        ``pending`` clears the user's decision.
        """

        if marking not in (ACCEPTED, REJECTED, PENDING):
            raise MarkingError(f"invalid marking {marking!r}")
        if dep.marking == PROVEN and marking == REJECTED:
            raise MarkingError(
                f"dependence on {dep.var} was proven by an exact test "
                "and cannot be rejected; edit the program or add an "
                "assertion that changes the analysis instead"
            )
        key = key_of(dep)
        if marking == PENDING:
            self.marks.pop(key, None)
            dep.marking = PENDING
        else:
            self.marks[key] = marking
            dep.marking = marking

    def apply(self, graph: DependenceGraph) -> int:
        """Re-apply stored markings to a freshly built graph.

        Returns the number of edges re-marked.  Markings whose dependence
        no longer exists (the edit/assertion removed it) simply have no
        effect — exactly what the user wanted.
        """

        if not self.marks:
            return 0
        hits = 0
        for dep in graph.edges:
            marking = self.marks.get(key_of(dep))
            if marking is not None and dep.marking != PROVEN:
                dep.marking = marking
                hits += 1
        return hits

    def shift_lines(self, after_line: int, delta: int) -> None:
        """Renumber marking keys after an edit changed the line count.

        Endpoint lines strictly beyond ``after_line`` move by ``delta``,
        so markings on untouched statements keep matching their edges
        when the program below an edit shifts up or down.
        """

        if not delta:
            return
        shifted: Dict[DepKey, str] = {}
        for (kind, var, src, dst, vector), marking in self.marks.items():
            src = src + delta if src > after_line else src
            dst = dst + delta if dst > after_line else dst
            shifted[(kind, var, src, dst, vector)] = marking
        self.marks = shifted

    def clear(self) -> None:
        self.marks.clear()

    def snapshot(self) -> Dict[DepKey, str]:
        return dict(self.marks)

    def restore(self, snap: Dict[DepKey, str]) -> None:
        self.marks = dict(snap)
