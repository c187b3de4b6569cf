"""Unit tests for the dependence graph structure and control dependence."""

import pickle

import pytest

from repro.analysis.cfg import build_cfg
from repro.dependence.control import control_dependences
from repro.dependence.graph import (
    ACCEPTED,
    CONTROL,
    Dependence,
    DependenceGraph,
    FLOW,
    PENDING,
    PROVEN,
    REJECTED,
)
from repro.fortran import parse_and_bind


def unit_of(body, decls=""):
    src = "      program t\n"
    for d in decls.splitlines():
        src += f"      {d}\n"
    for line in body.splitlines():
        src += f"      {line}\n"
    src += "      end\n"
    return parse_and_bind(src).units[0]


class TestDependenceGraph:
    def make(self):
        g = DependenceGraph()
        d1 = g.add(FLOW, "a", 0, 1, (1,), 1, nest_sids=(5,))
        d2 = g.add(FLOW, "b", 1, 2, ("=",), 0)
        return g, d1, d2

    def test_ids_unique(self):
        g, d1, d2 = self.make()
        assert d1.id != d2.id

    def test_find(self):
        g, d1, _ = self.make()
        assert g.find(d1.id) is d1
        with pytest.raises(KeyError):
            g.find(999)

    def test_ids_are_positions(self):
        g, d1, d2 = self.make()
        assert [d.id for d in g.edges] == [0, 1]
        # Neither indexes from the end nor past it.
        for bad in (-1, len(g.edges)):
            with pytest.raises(KeyError):
                g.find(bad)

    def test_pickled_graph_holds_no_itertools_object(self):
        """Every ``unit:`` record pickles a graph, and pickling an
        ``itertools`` iterator warns from Python 3.12 and fails from
        3.14."""

        g, _, _ = self.make()
        blob = pickle.dumps(g)
        assert b"itertools" not in blob
        assert pickle.loads(blob).add(FLOW, "c", 2, 3, (), 0).id == 2

    def test_by_src_dst_indices(self):
        g, d1, d2 = self.make()
        assert d1 in g.by_src[0]

    def test_loop_carried_flag(self):
        g, d1, d2 = self.make()
        assert d1.loop_carried and not d2.loop_carried

    def test_carrier_sid(self):
        g, d1, d2 = self.make()
        assert d1.carrier_sid() == 5
        assert d2.carrier_sid() is None

    def test_vector_str(self):
        g, d1, d2 = self.make()
        assert d1.vector_str() == "(1)"
        assert d2.vector_str() == "(=)"

    def test_distance_and_direction(self):
        g, d1, _ = self.make()
        assert d1.distance_at(1) == 1
        assert d1.direction_at(1) == "<"

    def test_negative_distance_direction(self):
        g = DependenceGraph()
        d = g.add(FLOW, "a", 0, 1, (-2,), 1)
        assert d.direction_at(1) == ">"

    def test_rejected_does_not_block(self):
        g, d1, _ = self.make()
        assert d1.blocks_parallelization
        d1.marking = REJECTED
        assert not d1.blocks_parallelization

    def test_edges_within(self):
        g, d1, d2 = self.make()
        assert g.edges_within({0, 1}) == [d1]

    def test_data_edges_excludes_control(self):
        g, d1, d2 = self.make()
        g.add(CONTROL, "", 0, 2, (), 0)
        assert all(d.kind != CONTROL for d in g.data_edges())


class TestControlDependence:
    def cds(self, body):
        unit = unit_of(body)
        cfg = build_cfg(unit)
        return set(control_dependences(cfg)), unit

    def test_if_arm_depends_on_branch(self):
        cds, u = self.cds("if (x .gt. 0) then\ny = 1\nend if\nz = 2")
        assert (0, 1) in cds
        assert (0, 2) not in cds

    def test_else_arm_also_depends(self):
        cds, u = self.cds("if (x .gt. 0) then\ny = 1\nelse\ny = 2\nend if")
        assert (0, 1) in cds and (0, 2) in cds

    def test_nested_if(self):
        cds, u = self.cds(
            "if (x .gt. 0) then\nif (y .gt. 0) then\nz = 1\nend if\nend if"
        )
        assert (0, 1) in cds
        assert (1, 2) in cds

    def test_loop_body_depends_on_header(self):
        cds, u = self.cds("do i = 1, 3\ny = 1\nend do")
        # The DO header decides whether the body runs: control dependence.
        assert (0, 1) in cds

    def test_straightline_no_control_deps(self):
        cds, u = self.cds("x = 1\ny = 2")
        assert cds == set()

    def test_statement_after_if_not_dependent(self):
        cds, u = self.cds("if (x .gt. 0) then\ny = 1\nelse\ny = 2\nend if\nz = 3")
        assert (0, 3) not in cds
