"""Unit-set changes against a from-scratch analysis (property test).

Binding reads one unit, so the engine keeps a span's parse in any
program that contains it.  Random sequences add, rename and delete a
function unit that other units reference as ``name(args)`` inside and
outside loops, change what it writes, and add and delete a subroutine.
After every step the engine's analysis must match
``analyze_program(parse_and_bind(source))``, and its parse stage must
miss exactly on the span digests it has not parsed before: a unit-set
change reparses only the spans it changed.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.fortran.symbols import parse_and_bind
from repro.incremental import AnalysisEngine, program_fingerprint, split_units
from repro.interproc.program import FeatureSet, analyze_program

MAIN = (
    "      program main\n"
    "      common /blk/ s\n"
    "      real x(20), y(20)\n"
    "      do i = 1, 20\n"
    "         x(i) = f(i)\n"
    "      enddo\n"
    "      y(1) = g(1)\n"
    "      call work(x, 20)\n"
    "      end\n"
)
WORK = (
    "      subroutine work(a, n)\n"
    "      real a(20)\n"
    "      do j = 2, n\n"
    "         a(j) = a(j-1) + g(j)\n"
    "      enddo\n"
    "      end\n"
)
#: Function bodies: a pure one, and one that writes COMMON ``s``.
BODIES = (
    "      {name} = k * 2.0\n",
    "      common /blk/ s\n      s = s + k\n      {name} = s\n",
)

#: Histories per run: 20 in tier-1, a quarter of the profile's count
#: (150) under ``HYPOTHESIS_PROFILE=deep``.
EXAMPLES = max(20, settings.default.max_examples // 4)


def _function(name, body):
    return (
        f"      function {name}(k)\n"
        + BODIES[body].format(name=name)
        + "      end\n"
    )


def _source(state):
    """``main``, then ``work`` if present; the function goes first or
    last (first shifts every other span's lines)."""

    units = [MAIN] + ([WORK] if state["work"] else [])
    if state["name"] is not None:
        func = _function(state["name"], state["body"])
        units = [func] + units if state["first"] else units + [func]
    return "".join(units)


def _add(state, draw):
    if state["name"] is None:
        state.update(name="fg"[draw % 2], body=draw % 2, first=draw % 3 == 0)


def _rename(state, _draw):
    if state["name"] is not None:
        state["name"] = "g" if state["name"] == "f" else "f"


def _delete(state, _draw):
    state["name"] = None


def _body(state, _draw):
    state["body"] = 1 - state["body"]


def _subroutine(state, _draw):
    state["work"] = not state["work"]


OPS = {
    "add": _add,
    "rename": _rename,
    "delete": _delete,
    "body": _body,
    "subroutine": _subroutine,
}

operations = st.lists(
    st.tuples(st.sampled_from(sorted(OPS)), st.integers(0, 5)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=EXAMPLES)
@given(operations)
def test_unit_set_changes_reparse_only_new_spans(ops):
    features = FeatureSet()
    engine = AnalysisEngine(features=features)
    parse = engine.stats.stage("parse")
    state = {"name": "f", "body": 0, "first": False, "work": True}
    parsed = set()
    for step in [None] + ops:
        if step is not None:
            name, draw = step
            OPS[name](state, draw)
        source = _source(state)
        digests = {span.digest for span in split_units(source)}
        before = parse.misses
        _, pa = engine.analyze(source)
        assert parse.misses - before == len(digests - parsed), step
        parsed |= digests
        ref = analyze_program(parse_and_bind(source), features)
        assert program_fingerprint(pa) == program_fingerprint(ref), step
