"""Dependence edges pickle as their constructor arguments.

``unit:`` records pickle whole unit analyses.  An edge pickles as
``Dependence(<fields in order>)`` instead of as its ``__dict__``, and
pickle's memo must still share each edge between ``graph.edges``, the
graph's four indices and ``LoopInfo.carried``, so a marking set through
one view shows through all of them after a load.
"""

import dataclasses
import pickle

from repro.dependence import analyze_unit
from repro.dependence.graph import ACCEPTED, REJECTED, Dependence
from repro.fortran import parse_and_bind

SOURCE = """\
      program t
      real a(100), b(100)
      do i = 2, 100
         a(i) = a(i-1) + b(i)
      end do
      do i = 1, 99
         b(i) = b(i+1)
      end do
      end
"""


def _analysis():
    ua = analyze_unit(parse_and_bind(SOURCE).units[0])
    carried = [d for li in ua.loop_info.values() for d in li.carried]
    assert len(carried) >= 2
    carried[0].marking = ACCEPTED
    carried[1].marking = REJECTED
    return ua


def _fields(dep):
    return tuple(getattr(dep, f.name) for f in dataclasses.fields(Dependence))


def test_reduce_names_every_field_in_order():
    dep = _analysis().graph.edges[0]
    cls, args = dep.__reduce__()
    assert cls is Dependence
    assert args == _fields(dep)
    assert len(args) == len(dataclasses.fields(Dependence))


def test_unit_analysis_round_trips_every_edge():
    ua = _analysis()
    loaded = pickle.loads(pickle.dumps(ua, protocol=pickle.HIGHEST_PROTOCOL))
    assert [_fields(d) for d in loaded.graph.edges] == [
        _fields(d) for d in ua.graph.edges
    ]
    assert all(type(d) is Dependence for d in loaded.graph.edges)


def test_indices_and_carried_lists_share_the_loaded_edges():
    loaded = pickle.loads(pickle.dumps(_analysis()))
    graph = loaded.graph
    ids = {id(d) for d in graph.edges}
    for index in (graph.by_src, graph.by_carrier, graph.by_var, graph.by_nest):
        assert index
        assert all(id(d) in ids for bucket in index.values() for d in bucket)
    for sid, li in loaded.loop_info.items():
        assert li.carried
        assert all(id(d) in ids for d in li.carried)
        dep = graph.find(li.carried[0].id)
        dep.marking = REJECTED
        assert any(d is dep for d in graph.carried_by_sid(sid))
        assert loaded.loop_info[sid].carried[0] is dep
