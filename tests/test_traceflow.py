"""Block-trace ingestion, loop-route enumeration, and prevalence stats."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from loopgrid.traceflow import (
    DEFAULT_MAX_LEN,
    LoopRoute,
    RoutineGraph,
    TraceError,
    coverage,
    coverage_of_routes,
    enumerate_loops,
    ingest,
    ingest_file,
    prevalence_report,
)


def brute_force_cycles(edges, max_len=DEFAULT_MAX_LEN):
    """Independent simple-cycle enumeration by exhaustive path search;
    keeps the cycles of at most max_len blocks (a self-loop has one)."""
    nodes = sorted({n for e in edges for n in e})
    succ = {n: sorted(d for s, d in edges if s == n) for n in nodes}
    found = set()

    def walk(path):
        here = path[-1]
        for nxt in succ[here]:
            if nxt == path[0]:
                cyc = list(path)
                i = cyc.index(min(cyc))
                found.add(tuple(cyc[i:] + cyc[:i]))
            elif nxt not in path and nxt > path[0]:
                # only extend with larger ids: each cycle found once,
                # rooted at its smallest block
                walk(path + [nxt])

    for n in nodes:
        walk([n])
    return {c for c in found if len(c) <= max_len}


# ---------------------------------------------------------------- ingestion

def test_streaming_alternation():
    g = ingest(["main,0", "main,1", "main,0", "main,1", "main,0"])["main"]
    assert g.edge_counts == {(0, 1): 2, (1, 0): 2}
    assert g.exec_count(0) == 2 and g.exec_count(1) == 2


def test_streaming_instruction_counts():
    g = ingest(["f,0,5", "f,1,3", "f,0,5"])["f"]
    assert g.instr_counts == {0: 5, 1: 3}
    assert g.total_instructions() == 1 * 5 + 1 * 3


def test_aggregated_matches_streaming():
    stream = ingest(["f,0,5", "f,1,3", "f,0,5", "f,1,3", "f,0,5"])
    agg = ingest([
        "#aggregated",
        "f,0,1,2",
        "f,1,0,2",
        "#bb f,0,5",
        "#bb f,1,3",
    ])
    s, a = stream["f"], agg["f"]
    assert s.edge_counts == a.edge_counts
    assert s.instr_counts == a.instr_counts
    assert s.total_instructions() == a.total_instructions()


def test_empty_trace():
    assert ingest([]) == {}


@pytest.mark.parametrize(
    "lines,line",
    [
        (["garbage line"], 1),
        (["f,0", "f,not_an_int"], 2),
        (["f,0", "#aggregated"], 2),
        (["#aggregated", "f,0,1"], 2),
        (["#aggregated", "f,0,1,0"], 2),  # zero edge count
        (["#bb f,0,5"], 1),  # declaration without #aggregated header
    ],
)
def test_malformed_traces(lines, line):
    with pytest.raises(TraceError) as exc:
        ingest(lines)
    assert exc.value.line == line


# ---------------------------------------------------------------- enumeration

def test_self_loop_route():
    g = ingest(["f,0", "f,0", "f,0", "f,0"])["f"]
    routes, truncated = enumerate_loops(g)
    assert not truncated
    assert routes == [LoopRoute(blocks=(0,), iterations=3,
                                instructions_per_iteration=1)]


def test_nested_cycles():
    # inner 0-1 loop nested in outer 0-1-2 loop
    g = ingest(["f,0", "f,1", "f,0", "f,1", "f,0", "f,1", "f,2", "f,0"])["f"]
    routes, _ = enumerate_loops(g)
    assert [r.blocks for r in routes] == [(0, 1), (0, 1, 2)]
    inner, outer = routes
    assert inner.iterations == 2  # bottleneck: back edge 1->0 taken twice
    assert outer.iterations == 1  # bottleneck: edge 1->2 taken once


def test_dag_has_no_routes():
    g = ingest(["f,0", "f,1", "f,2"])["f"]
    routes, _ = enumerate_loops(g)
    assert routes == []


def test_truncation_flag():
    # complete digraph on 6 blocks has many simple cycles
    edges = {(a, b): 1 for a in range(6) for b in range(6) if a != b}
    g = RoutineGraph("f", instr_counts={}, edge_counts=edges)
    routes, truncated = enumerate_loops(g, max_routes=5)
    assert truncated and len(routes) == 5


def test_cycle_sets_match_brute_force_exhaustive():
    # every digraph on 3 blocks, at every length bound up to the block count
    all_edges = [(a, b) for a in range(3) for b in range(3)]
    for mask in range(2 ** len(all_edges)):
        edges = {e: 1 for i, e in enumerate(all_edges) if mask >> i & 1}
        if not edges:
            continue
        g = RoutineGraph("f", instr_counts={}, edge_counts=edges)
        for max_len in (1, 2, 3):
            routes, truncated = enumerate_loops(g, max_len=max_len)
            assert not truncated
            assert {r.blocks for r in routes} == brute_force_cycles(edges, max_len)


def test_truncation_keeps_top_routes_seeded():
    rng = random.Random(2105)
    n = rng.randint(6, 9)
    edges = {(a, b): rng.randint(1, 50)
             for a in range(n) for b in range(n) if rng.random() < 0.5}
    instrs = {bb: rng.randint(1, 9) for bb in range(n)}
    g = RoutineGraph("f", instr_counts=instrs, edge_counts=edges)
    expect = sorted(
        (LoopRoute(c, min(edges[e] for e in zip(c, c[1:] + c[:1])),
                   sum(instrs[bb] for bb in c))
         for c in brute_force_cycles(edges, max_len=4)),
        key=lambda r: (-r.iterations, r.blocks))
    assert len(expect) > 8
    routes, truncated = enumerate_loops(g, max_len=4, max_routes=8)
    assert truncated
    assert routes == expect[:8]


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)),
               min_size=1, max_size=20))
def test_cycle_sets_match_brute_force_random(edge_set):
    edges = {e: 1 for e in edge_set}
    g = RoutineGraph("f", instr_counts={}, edge_counts=edges)
    routes, truncated = enumerate_loops(g, max_routes=100_000)
    assert not truncated
    assert {r.blocks for r in routes} == brute_force_cycles(edges)


# ---------------------------------------------------------------- prevalence

def test_loop_fraction_from_fixture(fixtures):
    # 239 tight-loop iterations of a 1-instruction block against a
    # 761-instruction straight-line block: loops are 23.9% of run time
    stats = prevalence_report(ingest_file(str(fixtures / "traces/looptime.trc")))
    assert stats.loop_fraction == pytest.approx(0.239)
    assert f"{stats.loop_fraction:.1%}" == "23.9%"


def test_pure_loop_routine_fraction_is_one():
    g = ingest(["f,0"] * 50)
    stats = prevalence_report(g)
    assert stats.routines[0].loop_fraction == pytest.approx(1.0)


def test_minor_routines_filtered():
    lines = ["big,0,100"] * 200 + ["tiny,0,1", "tiny,1,1"]
    stats = prevalence_report(ingest(lines), min_routine_fraction=0.01)
    names = {r.name for r in stats.routines if not r.filtered}
    assert names == {"big"}
    tiny = next(r for r in stats.routines if r.name == "tiny")
    assert tiny.filtered and tiny.prevalence < 0.01


# ---------------------------------------------------------------- coverage

def test_coverage_basics():
    assert coverage([70, 20, 10], 0.9) == (2, pytest.approx(2 / 3))
    assert coverage([100], 0.9) == (1, 1.0)
    assert coverage([50, 50], 0.5) == (1, 0.5)


def test_coverage_monotone_in_p():
    counts = [40, 25, 15, 10, 5, 3, 2]
    ks = [coverage(counts, p)[0] for p in (0.3, 0.5, 0.7, 0.9, 0.99)]
    assert ks == sorted(ks)


def test_coverage_of_routes_uses_iterations():
    routes = [LoopRoute((0,), 700, 1), LoopRoute((1,), 200, 1),
              LoopRoute((2,), 100, 1)]
    assert coverage_of_routes(routes, 0.9) == (2, pytest.approx(2 / 3))


def test_coverage_fixtures(fixtures):
    # 15 routes, two hot ones hold 90% of iterations
    g90 = ingest_file(str(fixtures / "traces/coverage90.trc"))["cov"]
    routes, _ = enumerate_loops(g90)
    k, frac = coverage_of_routes(routes, 0.90)
    assert (k, frac) == (2, pytest.approx(2 / 15))
    # a flatter profile needs 11 of 60 routes for 95%
    g95 = ingest_file(str(fixtures / "traces/coverage95.trc"))["cov"]
    routes, _ = enumerate_loops(g95)
    k, frac = coverage_of_routes(routes, 0.95)
    assert (k, frac) == (11, pytest.approx(11 / 60))
