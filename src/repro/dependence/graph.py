"""The dependence graph: typed, levelled edges between statements.

Edge *types* follow the classic taxonomy: flow (true), anti, output and
input data dependences plus control dependences.  Every edge carries a
hybrid direction/distance vector over the common loop nest and a *marking*
used by the editor: ``proven`` (established by an exact test), ``pending``
(assumed because no test disproved it), or a user marking ``accepted`` /
``rejected`` applied through the dependence pane.  Rejected edges are kept
— Ped never forgets a user decision, it only filters — but they no longer
inhibit parallelization.

An edge's id is its position in ``edges``, so ``find`` is a range check
and an index.  :meth:`DependenceGraph.add` maintains four secondary
indices (by source sid, carrier-loop sid, variable and nest membership)
so the hot queries the driver, the editor panes and the transformations
issue — ``carried_by``, ``edges_within``, ``in_nest``, per-variable
pane filters — cost O(results) instead of O(edges).  All indices hold
the same :class:`Dependence` objects as ``edges`` (never copies), so
marking mutations are visible everywhere and ``marking_snapshot`` /
``restore_markings`` keep working off the canonical insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..fortran.ast_nodes import DoLoop

FLOW = "true"
ANTI = "anti"
OUTPUT = "output"
INPUT = "input"
CONTROL = "control"

PROVEN = "proven"
PENDING = "pending"
ACCEPTED = "accepted"
REJECTED = "rejected"

#: Vector element: an int distance, or one of '<', '=', '>', '*'.
VecElem = object

#: Carrier-index key for loop-independent edges (level 0).
_NO_CARRIER = -1


@dataclass
class Dependence:
    """One dependence edge.

    ``vector`` is the hybrid distance/direction vector over the common
    nest, outermost first — ints where the distance is exact, direction
    symbols otherwise.  ``level`` is the 1-based carrying level within the
    common nest, or 0 for loop-independent edges.  ``var`` is the array or
    scalar the dependence flows through.
    """

    id: int
    kind: str
    var: str
    src_sid: int
    dst_sid: int
    vector: Tuple[VecElem, ...]
    level: int
    marking: str = PENDING
    test: str = ""
    src_line: int = 0
    dst_line: int = 0
    reason: str = ""
    #: sids of the common-nest DO loops, outermost first; vector[k] and
    #: level refer to positions in this tuple.
    nest_sids: Tuple[int, ...] = ()

    @property
    def loop_carried(self) -> bool:
        return self.level > 0

    def carrier_sid(self) -> Optional[int]:
        """sid of the loop carrying this dependence (None if independent)."""

        if self.level > 0 and self.level <= len(self.nest_sids):
            return self.nest_sids[self.level - 1]
        return None

    @property
    def loop_independent(self) -> bool:
        return self.level == 0

    def distance_at(self, level: int) -> Optional[int]:
        if 1 <= level <= len(self.vector):
            elem = self.vector[level - 1]
            if isinstance(elem, int):
                return elem
        return None

    def direction_at(self, level: int) -> str:
        if 1 <= level <= len(self.vector):
            elem = self.vector[level - 1]
            if isinstance(elem, int):
                if elem > 0:
                    return "<"
                if elem < 0:
                    return ">"
                return "="
            return str(elem)
        return "*"

    @property
    def blocks_parallelization(self) -> bool:
        """A rejected edge no longer constrains the loop."""

        return self.marking != REJECTED

    def vector_str(self) -> str:
        parts = []
        for elem in self.vector:
            parts.append(str(elem) if isinstance(elem, int) else str(elem))
        return "(" + ",".join(parts) + ")" if parts else "()"


@dataclass
class DependenceGraph:
    """All dependence edges of one procedure."""

    edges: List[Dependence] = field(default_factory=list)
    by_src: Dict[int, List[Dependence]] = field(default_factory=dict)
    #: carrier-loop sid → carried data edges (``_NO_CARRIER`` bucket holds
    #: loop-independent edges); control edges are excluded, matching the
    #: ``carried_by`` contract.
    by_carrier: Dict[int, List[Dependence]] = field(default_factory=dict)
    #: variable name → edges through that variable (pane var= filters).
    by_var: Dict[str, List[Dependence]] = field(default_factory=dict)
    #: common-nest loop sid → edges whose nest_sids mention that loop.
    by_nest: Dict[int, List[Dependence]] = field(default_factory=dict)

    def add(
        self,
        kind: str,
        var: str,
        src_sid: int,
        dst_sid: int,
        vector: Tuple[VecElem, ...],
        level: int,
        marking: str = PENDING,
        test: str = "",
        src_line: int = 0,
        dst_line: int = 0,
        reason: str = "",
        nest_sids: Tuple[int, ...] = (),
    ) -> Dependence:
        dep = Dependence(
            len(self.edges),
            kind,
            var,
            src_sid,
            dst_sid,
            vector,
            level,
            marking,
            test,
            src_line,
            dst_line,
            reason,
            nest_sids,
        )
        self.edges.append(dep)
        # Index maintenance, open-coded: ``setdefault(k, [])`` allocates
        # a throwaway list per call, and this is the hottest write path
        # in the driver's pair stage.
        bucket = self.by_src.get(src_sid)
        if bucket is None:
            self.by_src[src_sid] = bucket = []
        bucket.append(dep)
        bucket = self.by_var.get(var)
        if bucket is None:
            self.by_var[var] = bucket = []
        bucket.append(dep)
        if kind != CONTROL:
            # Inline carrier_sid(): the extra method call shows up here.
            if 0 < level <= len(nest_sids):
                key = nest_sids[level - 1]
            else:
                key = _NO_CARRIER
            bucket = self.by_carrier.get(key)
            if bucket is None:
                self.by_carrier[key] = bucket = []
            bucket.append(dep)
        for sid in nest_sids:
            bucket = self.by_nest.get(sid)
            if bucket is None:
                self.by_nest[sid] = bucket = []
            bucket.append(dep)
        return dep

    def find(self, dep_id: int) -> Dependence:
        # The range check keeps a negative id from indexing from the end.
        if 0 <= dep_id < len(self.edges):
            return self.edges[dep_id]
        raise KeyError(dep_id)

    def marking_snapshot(self) -> List[str]:
        """Edge markings in edge order — the only per-edge state users
        mutate, so this is all a cached graph needs saved for reuse."""

        return [dep.marking for dep in self.edges]

    def restore_markings(self, snapshot: List[str]) -> None:
        for dep, marking in zip(self.edges, snapshot):
            dep.marking = marking

    def data_edges(self) -> List[Dependence]:
        return [d for d in self.edges if d.kind != CONTROL]

    def edges_within(self, sids: Iterable[int]) -> List[Dependence]:
        """Edges with both endpoints inside the given statement set.

        Walks the per-source index of each requested sid rather than the
        whole edge list; result order matches insertion order.
        """

        sid_set = set(sids)
        if len(sid_set) * 4 >= len(self.edges):
            # Dense selection: a single scan preserves order for free.
            return [
                d
                for d in self.edges
                if d.src_sid in sid_set and d.dst_sid in sid_set
            ]
        out = [
            d
            for sid in sid_set
            for d in self.by_src.get(sid, ())
            if d.dst_sid in sid_set
        ]
        out.sort(key=lambda d: d.id)
        return out

    def edges_between(
        self, src_sids: Iterable[int], dst_sids: Iterable[int]
    ) -> List[Dependence]:
        """Edges from any sid in ``src_sids`` to any sid in ``dst_sids``."""

        src_set = set(src_sids)
        dst_set = set(dst_sids)
        out = [
            d
            for sid in src_set
            for d in self.by_src.get(sid, ())
            if d.dst_sid in dst_set
        ]
        out.sort(key=lambda d: d.id)
        return out

    def carried_by(self, loop: DoLoop) -> List[Dependence]:
        """Data dependences carried by ``loop`` (via ``nest_sids``)."""

        return self.carried_by_sid(loop.sid)

    def carried_by_sid(self, sid: int) -> List[Dependence]:
        return list(self.by_carrier.get(sid, ()))

    def in_nest(self, sid: int) -> List[Dependence]:
        """Edges whose common nest includes the loop with ``sid``."""

        return list(self.by_nest.get(sid, ()))

    def with_var(self, var: str) -> List[Dependence]:
        """Edges flowing through variable ``var``."""

        return list(self.by_var.get(var, ()))
