"""Loop-carried dependency extraction and pattern classification."""

import pytest
from hypothesis import given, settings, strategies as st

from loopgrid.analysis import (
    DEFAULT_LATENCIES,
    LoopPattern,
    classify,
    describe_deps,
    find_deps,
    path_latency,
)
from loopgrid.ir import DfgError, load_dfg, parse_dfg

from _random_graphs import random_dfg


def deps_of(fixtures, name):
    g = load_dfg(str(fixtures / name))
    return g, find_deps(g)


def test_accumulator_single_dep(fixtures):
    g, deps = deps_of(fixtures, "accumulator.dfg")
    assert len(deps) == 1
    d = deps[0]
    assert (d.producer, d.consumer, d.consumer_slot, d.diff) == (1, 1, 0, 1)
    assert d.dependent_path == (1,)
    assert path_latency(g, d.dependent_path) == DEFAULT_LATENCIES["alu"]


def test_no_back_edges_no_deps():
    g = parse_dfg(
        "node 0 const 3\nnode 1 const 4\nnode 2 add\n"
        "edge 0 2 0\nedge 1 2 1\nliveout 2"
    )
    assert find_deps(g) == []


@pytest.mark.parametrize(
    "name,pattern,mem",
    [
        ("scenario1.dfg", LoopPattern.SINGLE_PATH, False),
        ("scenario1f.dfg", LoopPattern.SINGLE_PATH, False),
        ("scenario2.dfg", LoopPattern.DIVERGING_AFTER, False),
        ("scenario3.dfg", LoopPattern.DIVERGING_BEFORE, False),
        ("scenario4.dfg", LoopPattern.SINGLE_PATH, True),
        ("wrf_mem.dfg", LoopPattern.DIVERGING_AFTER, True),
        ("wrf_nomem.dfg", LoopPattern.DIVERGING_AFTER, False),
    ],
)
def test_pattern_classification(fixtures, name, pattern, mem):
    g, deps = deps_of(fixtures, name)
    assert len(deps) == 1
    assert classify(g, deps[0], deps) == (pattern, mem)


def test_consecutive_deps_share_path_nodes(fixtures):
    g, deps = deps_of(fixtures, "scenario5.dfg")
    assert len(deps) == 3
    assert {d.consumer for d in deps} == {2, 3, 4}
    for d in deps:
        assert classify(g, d, deps)[0] is LoopPattern.CONSECUTIVE
    # paths nest: every shorter path is a suffix chain into the producer
    paths = sorted((d.dependent_path for d in deps), key=len)
    for short, long in zip(paths, paths[1:]):
        assert set(short) <= set(long)


def test_diverging_before_path_has_multiple_nodes(fixtures):
    g, deps = deps_of(fixtures, "scenario3.dfg")
    d = deps[0]
    assert len(d.dependent_path) >= 2
    assert d.dependent_path[0] == d.consumer
    assert d.dependent_path[-1] == d.producer


def test_longest_latency_path_chosen():
    # consumer 1 reaches producer 4 two ways; fpu branch (4 cycles) wins
    g = parse_dfg(
        "node 0 const 1\nnode 1 add\nnode 2 fadd\nnode 3 add\nnode 4 add\n"
        "edge 0 1 0\nedge 1 2 0\nedge 0 2 1\nedge 1 3 0\nedge 0 3 1\n"
        "edge 2 4 0\nedge 3 4 1\nback 4 1 1 1\nlivein x 1 1 0\nliveout 4"
    )
    d = find_deps(g)[0]
    assert d.dependent_path == (1, 2, 4)
    assert path_latency(g, d.dependent_path) == 1 + 4 + 1


def test_malformed_loop_when_producer_unreachable():
    # back edge whose producer has no intra path from the consumer
    g = parse_dfg(
        "node 0 const 1\nnode 1 add\nnode 2 add\n"
        "edge 0 1 0\nedge 0 2 0\nback 2 1 1 1\n"
        "livein x 1 1 0\nlivein y 2 1 3\nliveout 1\nliveout 2"
    )
    with pytest.raises(DfgError) as exc:
        find_deps(g)
    assert exc.value.code == "malformed-loop"


def test_describe_lines(fixtures):
    g = load_dfg(str(fixtures / "scenario3.dfg"))
    assert describe_deps(g) == [
        "dep 4->3 slot=0 diff=1 pattern=DivergingBefore mem=0 path_len=2"
    ]


def test_analysis_stable_under_latency_table(fixtures):
    # classification depends on shape, not on the latency table
    g, deps = deps_of(fixtures, "scenario2.dfg")
    slow = dict(DEFAULT_LATENCIES, alu=9, fpu=2)
    deps2 = find_deps(g, latencies=slow)
    assert [(d.producer, d.consumer, d.diff) for d in deps] == [
        (d.producer, d.consumer, d.diff) for d in deps2
    ]
    assert classify(g, deps2[0], deps2)[0] is LoopPattern.DIVERGING_AFTER


def all_intra_paths(g, start, goal):
    """Every simple intra-edge path start -> goal (exponential; oracle only)."""
    if start == goal:
        yield (start,)
        return
    succ = {}
    for e in g.intra_edges():
        succ.setdefault(e.src, []).append(e.dst)
    stack = [(start, (start,))]
    while stack:
        nid, path = stack.pop()
        for nxt in sorted(succ.get(nid, []), reverse=True):
            if nxt == goal:
                yield path + (nxt,)
            elif nxt not in path:
                stack.append((nxt, path + (nxt,)))


def enumerated_paths(g, latencies):
    """Per back edge: the costliest path, ties to the smallest node sequence."""
    return [
        min((-path_latency(g, p, latencies), p) for p in all_intra_paths(g, be.dst, be.src))[1]
        for be in g.back_edges()
    ]


# small latencies, so that equal-cost paths and the tie-break come up often
LATENCY_TABLES = st.fixed_dictionaries(
    {cls: st.integers(min_value=1, max_value=4) for cls in DEFAULT_LATENCIES})


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), LATENCY_TABLES)
def test_find_deps_matches_path_enumeration(seed, latencies):
    g = random_dfg(seed)  # back edges only ever close reachable paths
    expected = enumerated_paths(g, latencies)
    deps = find_deps(g, latencies)
    assert [d.dependent_path for d in deps] == expected
    assert [d.back_edge for d in deps] == g.back_edges()


def diamond_chain(depth, arms):
    """``depth`` diamonds in series from consumer 1 to the last join; each
    diamond's two arms have kinds ``arms`` (smaller id first), and the
    larger-id arm's edges are listed first."""
    lines = ["node 0 const 1", "node 1 add", "edge 0 1 1"]
    top, path_small, path_large = 1, [1], [1]
    for k in range(depth):
        small, large, join = 2 + 3 * k, 3 + 3 * k, 4 + 3 * k
        lines += [f"node {small} {arms[0]}", f"node {large} {arms[1]}", f"node {join} add",
                  f"edge {top} {large} 0", f"edge 0 {large} 1",
                  f"edge {top} {small} 0", f"edge 0 {small} 1",
                  f"edge {large} {join} 0", f"edge {small} {join} 1"]
        path_small += [small, join]
        path_large += [large, join]
        top = join
    lines += [f"back {top} 1 0 1", "livein x 1 0 0", f"liveout {top}"]
    return parse_dfg("\n".join(lines)), tuple(path_small), tuple(path_large)


def test_deep_diamond_chain_takes_costlier_arm():
    # 2**40 consumer-to-producer paths; the fpu arm (the larger id) wins each diamond
    g, _small, large = diamond_chain(40, ("add", "fadd"))
    (dep,) = find_deps(g)
    assert dep.dependent_path == large
    assert path_latency(g, dep.dependent_path) == 1 + 40 * (4 + 1)


def test_deep_diamond_chain_ties_to_smaller_id():
    g, small, _large = diamond_chain(40, ("add", "add"))
    (dep,) = find_deps(g)
    assert dep.dependent_path == small
    assert classify(g, dep, [dep])[0] is LoopPattern.DIVERGING_BEFORE


def test_intra_cycle_rejected(data_dir):
    with pytest.raises(DfgError) as exc:
        find_deps(load_dfg(str(data_dir / "intra_cycle.dfg")))
    assert exc.value.code == "intra-cycle"
