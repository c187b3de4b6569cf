"""Hot-path parity: pruning, memoization and batching change nothing.

Pair pruning, test memoization and the indexed graph queries are pure
performance work.  This suite proves it by running every workload
program through the production walk and through the pair-at-a-time
reference walk (``tests/dependence/reference_walk.py``), with pruning
and memoization off, and requiring byte-identical structural
fingerprints — including under user assertions and variable overrides,
the paths that mutate the oracle mid-session.
"""

from contextlib import nullcontext

import pytest

from repro.dependence import driver
from repro.fortran import parse_and_bind
from repro.incremental import program_fingerprint
from repro.interproc import FeatureSet, analyze_program
from repro.workloads import SUITE

from tests.dependence.reference_walk import recorded_pairs, reference_walk
from tests.perf.test_batch_parity import observables, observe


def fingerprint_of(source: str, walk=None):
    with walk or nullcontext():
        pa = analyze_program(parse_and_bind(source), FeatureSet())
    return program_fingerprint(pa)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_parity_fully_optimized(name):
    source = SUITE[name].source
    reference = fingerprint_of(source, reference_walk(prune=False, memoize=False))
    assert fingerprint_of(source) == reference


def test_parity_under_assertions_and_overrides():
    """Sessions mutate the oracle (assertions) and the variable
    classification (overrides); the production walk must track both
    exactly — this is where a stale memo would show."""

    from repro.editor.session import PedSession

    source = SUITE["onedim"].source

    def run_session(walk=None):
        with walk or nullcontext(), recorded_pairs() as pairs_of:
            session = PedSession(source)
            session.select_unit("build")
            session.select_loop(0)
            steps = [observables(session.analysis, pairs_of)]
            session.add_assertion("n >= 1")
            steps.append(observables(session.analysis, pairs_of))
            session.reclassify("t", "private")
            steps.append(observables(session.analysis, pairs_of))
            session.undo()
            steps.append(observables(session.analysis, pairs_of))
        return steps

    production = run_session()
    assert production == run_session(reference_walk())
    unoptimized = run_session(reference_walk(prune=False, memoize=False))
    assert [s["fingerprint"] for s in production] == [
        s["fingerprint"] for s in unoptimized
    ]


@pytest.mark.parametrize("share", [False, True])
def test_memo_replay_preserves_tier_statistics(share):
    """A memo hit — local or shared — must bump the tier counters
    exactly as a real run; the M1 hierarchy statistics may not depend on
    cache behaviour."""

    source = SUITE["spec77"].source
    production = observe(source, share=share)
    reference = observe(source, reference_walk(memoize=False), share=share)
    for name, unit in reference.items():
        if name == "fingerprint":
            continue
        for key in ("tier_counts", "resolved", "resolved_classic"):
            assert production[name][key] == unit[key], (name, key)
    assert any(
        unit["memo"][0] or unit["shared"][0]
        for name, unit in production.items()
        if name != "fingerprint"
    )


def test_hotpath_counters_fire_on_real_workloads():
    from repro.workloads.generator import generate_program

    source = generate_program(n_routines=10)
    sf = parse_and_bind(source)
    pa = analyze_program(sf, FeatureSet())
    totals = {}
    for ua in pa.units.values():
        for key, value in ua.hotpath_stats().items():
            totals[key] = totals.get(key, 0) + value
    assert totals["pairs_pruned"] > 0
    assert totals["memo_hits"] > 0
    # The memo also proved its keep: hits dominate misses on generated
    # programs, whose routines repeat the same access patterns.
    assert totals["memo_hits"] > totals["memo_misses"]
    # And the program-scoped memo fires across units: the generated
    # routines repeat the same stencil shape under different names.
    assert totals["shared_hits"] > 0


def test_shared_memo_counts_lookups_and_absorbs_entries_only():
    """A lookup counts one hit or one miss; absorbing entries proved
    elsewhere adds them without touching the counters."""

    from repro.dependence.hierarchy import SharedPairMemo

    memo = SharedPairMemo()
    assert memo.lookup(("k1",)) is None
    memo.store(("k1",), ("v1",))
    assert memo.lookup(("k1",)) == ("v1",)
    assert (memo.hits, memo.misses) == (1, 1)

    memo.absorb({("k1",): ("other",), ("k2",): ("v2",)})
    assert memo.entries == {("k1",): ("v1",), ("k2",): ("v2",)}
    assert (memo.hits, memo.misses) == (1, 1)


def test_persisted_memo_warms_a_sibling_program(tmp_path):
    """A fresh engine over a *different* program sharing subscript
    shapes must hit the disk-persisted shared memo — with fingerprints
    identical to a from-scratch analysis."""

    from repro.incremental import AnalysisEngine
    from repro.service import build_engine
    from repro.workloads.generator import generate_program

    base = generate_program(n_routines=8)
    # A sibling: half the routines keep their exact spans, the rest get
    # a wider stencil (content change, same program shape).
    marker = "(x(i+1) - x(i-1))"
    parts = base.split("      subroutine upd")
    out = [parts[0]]
    for p in parts[1:]:
        if int(p.split("(")[0]) >= 4:
            p = p.replace(marker, "(x(i+2) - x(i-2))")
        out.append(p)
    sibling = "      subroutine upd".join(out)
    assert sibling != base

    cache = tmp_path / "cache"
    first = build_engine(cache_dir=cache)
    first.analyze(base)
    assert first.stats.counters["memo.persisted_entries"] > 0

    second = build_engine(cache_dir=cache)
    _, pa = second.analyze(sibling)
    _, pa_scratch = AnalysisEngine().analyze(sibling)
    assert program_fingerprint(pa) == program_fingerprint(pa_scratch)
    counters = second.stats.counters
    # Cold program key (never seen), warm everything else: spans and
    # unit summaries for the unchanged routines, memo entries for all.
    assert "disk.warm_start" not in counters
    assert counters["disk.span_warm"] > 0
    assert counters["disk.usum_hit"] > 0
    assert counters["memo.shared_hits"] > 0


def test_indexed_queries_match_full_scans():
    """Every secondary index answers exactly like a scan of ``edges``."""

    sf = parse_and_bind(SUITE["spec77"].source)
    pa = analyze_program(sf, FeatureSet())
    for ua in pa.units.values():
        g = ua.graph
        for dep in g.edges:
            assert g.find(dep.id) is dep
        for var in {d.var for d in g.edges}:
            assert g.with_var(var) == [d for d in g.edges if d.var == var]
        for nest in ua.loops:
            loop = nest.loop
            assert g.carried_by(loop) == [
                d
                for d in g.edges
                if d.kind != "control" and d.carrier_sid() == loop.sid
            ]
            assert g.in_nest(loop.sid) == [
                d for d in g.edges if loop.sid in d.nest_sids
            ]
            sids = ua.body_sids(loop) | {loop.sid}
            assert g.edges_within(sids) == [
                d
                for d in g.edges
                if d.src_sid in sids and d.dst_sid in sids
            ]
            # The sparse path must agree with the dense path regardless
            # of the selectivity heuristic's choice.
            small = set(list(sids)[:2])
            assert g.edges_within(small) == [
                d
                for d in g.edges
                if d.src_sid in small and d.dst_sid in small
            ]


def test_statement_index_matches_walks():
    from repro.fortran.ast_nodes import walk_statements

    for name in ("spec77", "arc3d", "boast"):
        sf = parse_and_bind(SUITE[name].source)
        for unit in sf.units:
            index = driver.UnitStatementIndex(unit)
            first_sid = {}
            for st in walk_statements(unit.body):
                if st.label is not None:
                    first_sid.setdefault(st.label, st.sid)
            assert index.label_to_sid == first_sid
            for nest in driver.collect_loops(unit):
                loop = nest.loop
                walked = list(walk_statements(loop.body))
                assert index.body_statements(loop) == walked
                assert index.body_sids(loop) == {s.sid for s in walked}
