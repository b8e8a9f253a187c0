"""Block-trace ingestion, loop-route enumeration, and prevalence stats."""

import io
import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from loopgrid.traceflow import (
    _LINE_CACHE_MAX,
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


def stream_oracle(events):
    """Independent reading of a streaming trace given as (routine, bb, instr)
    events: per routine, the last instr per block and a Counter of
    consecutive block pairs, both in first-seen order."""
    graphs, prev = {}, {}
    for name, bb, instr in events:
        instrs, edges = graphs.setdefault(name, ({}, Counter()))
        instrs[bb] = 1 if instr is None else instr
        if name in prev:
            edges[(prev[name], bb)] += 1
        prev[name] = bb
    return graphs


def assert_matches_oracle(graphs, events):
    expect = stream_oracle(events)
    assert list(graphs) == list(expect)
    for name, (instrs, edges) in expect.items():
        g = graphs[name]
        assert g.name == name
        assert list(g.instr_counts.items()) == list(instrs.items())
        assert list(g.edge_counts.items()) == list(edges.items())


def plain_lines(events):
    """Streaming lines for (routine, bb, instr) events, without padding."""
    return [f"{name},{bb}" + ("" if instr is None else f",{instr}") for name, bb, instr in events]


PAD = st.sampled_from(["", " ", "\t", "  "])
EOL = st.sampled_from(["\n", "\r\n"])
FILLER = st.sampled_from(["", "  ", "# note", "#x,1,2", "\t# c"])
EVENT = st.tuples(st.sampled_from(["main", "f", "g2"]), st.integers(0, 5),
                  st.none() | st.integers(1, 9))


@st.composite
def rendered_streams(draw):
    """A streaming trace as text: drawn events, with blank and comment lines
    in between.  Each distinct event keeps the renderings (padding and line
    ending) drawn for it so far and draws a new one with chance 1/8, else
    reuses one, so raw lines repeat exactly, those of blocks whose count
    varies included.  The alphabet is small, so long lists repeat lines and
    block pairs."""
    events = draw(st.lists(EVENT, max_size=400))
    forms = {}  # event -> its renderings so far
    out = []
    for event in events:
        if draw(st.booleans()):
            out.append(draw(FILLER) + draw(EOL))
        seen = forms.setdefault(event, [])
        if not seen or draw(st.integers(0, 7)) == 0:
            name, bb, instr = event
            fields = [name, str(bb)] + ([] if instr is None else [str(instr)])
            seen.append(",".join(draw(PAD) + f + draw(PAD) for f in fields) + draw(EOL))
            out.append(seen[-1])
        else:
            out.append(draw(st.sampled_from(seen)))
    return events, "".join(out)


@settings(max_examples=200, deadline=None)
@given(rendered_streams())
def test_streaming_ingest_matches_oracle(case):
    events, text = case
    assert_matches_oracle(ingest(io.StringIO(text)), events)


@pytest.mark.parametrize(
    "last,message",
    [
        ("#aggregated", "mixed streaming and aggregated formats"),
        ("#bb f,0,5", "#bb declaration outside an aggregated trace"),
        ("f,0,x", "malformed trace line: 'f,0,x'"),
    ],
)
def test_error_after_repeated_streaming_lines(last, message):
    # the first lines repeat, so they are parsed once and then looked up
    lines = ["f,0,5", "f,1", "f,0,5", "f,1", "f,0,5", last, "f,1"]
    with pytest.raises(TraceError) as exc:
        ingest(lines)
    assert exc.value.line == 6
    assert str(exc.value) == f"{message} (line 6)"


def test_instruction_count_change_after_cached_lines():
    # block 0's line is parsed, cached and counted many times before other
    # lines give block 0 other counts; the last count read wins, and blocks
    # and edges keep their first-seen order
    events = ([("f", 0, 5), ("f", 1, 3)] * 50
              + [("f", 0, 7), ("f", 2, None), ("f", 1, 3), ("f", 0, 5)] * 3
              + [("f", 1, 3), ("f", 0, 7), ("f", 1, 3), ("f", 0, 5)])
    graphs = ingest(plain_lines(events))
    assert_matches_oracle(graphs, events)
    assert graphs["f"].instr_counts == {0: 5, 1: 3, 2: 1}
    assert list(graphs["f"].edge_counts) == [(0, 1), (1, 0), (0, 2), (2, 1), (0, 0)]


def test_late_edge_and_routine_after_many_cached_lines():
    # far more lines than the cache holds, but only three distinct ones, so
    # nearly every line is a cache hit; a new edge and a new routine come last
    events = [("main", i % 3, 2) for i in range(3 * _LINE_CACHE_MAX)]
    events += [("main", 3, None), ("late", 0, 4), ("main", 0, 2), ("late", 1, None),
               ("late", 0, 4)]
    graphs = ingest(plain_lines(events))
    assert_matches_oracle(graphs, events)
    assert graphs["main"].edge_counts == {(0, 1): _LINE_CACHE_MAX, (1, 2): _LINE_CACHE_MAX,
                                          (2, 0): _LINE_CACHE_MAX - 1, (2, 3): 1, (3, 0): 1}
    assert graphs["late"].edge_counts == {(0, 1): 1, (1, 0): 1}


@pytest.mark.parametrize(
    "last,message",
    [
        ("#aggregated", "mixed streaming and aggregated formats"),
        ("f,1,x", "malformed trace line: 'f,1,x'"),
    ],
)
def test_error_after_many_counted_lines(last, message):
    lines = ["f,0,5", "f,1", "g,0"] * 5000 + [last, "f,0,5"]
    with pytest.raises(TraceError) as exc:
        ingest(lines)
    assert exc.value.line == 15_001
    assert str(exc.value) == f"{message} (line 15001)"


def test_more_distinct_lines_than_the_cache_holds():
    # every line distinct; the second pass repeats them, so the first
    # _LINE_CACHE_MAX are looked up and the rest are parsed in full again
    events = [(f"r{i % 3}", i % 7, i) for i in range(3 * _LINE_CACHE_MAX)]
    lines = [f"{name},{bb},{instr}" for name, bb, instr in events]
    assert_matches_oracle(ingest(lines + lines), events + events)


def test_line_cache_memory_is_bounded():
    # 60k distinct lines; without a bound the parsed lines alone take about
    # 11 MB, with it under one
    tracemalloc.start()
    try:
        g = ingest(f"f,{i % 2},{i}\n" for i in range(60_000))["f"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_counts == {(0, 1): 30_000, (1, 0): 29_999}
    assert g.instr_counts == {0: 59_998, 1: 59_999}
    assert peak < 2_000_000


def test_counting_memory_does_not_grow_with_the_stream():
    # 240k lines over 16 distinct ones: the code, line and pair tables hold
    # one entry per block, per line and per edge, whatever the length
    distinct = [f"{r},{bb},{bb + 1}\n" for r in ("f", "g") for bb in (0, 1, 2, 3, 4, 2, 3, 1)]
    tracemalloc.start()
    try:
        graphs = ingest(itertools.islice(itertools.cycle(distinct), 240_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for g in graphs.values():
        assert g.edge_counts == {(0, 1): 15_000, (1, 2): 15_000, (2, 3): 30_000,
                                 (3, 4): 15_000, (4, 2): 15_000, (3, 1): 15_000,
                                 (1, 0): 14_999}
    assert peak < 50_000



# ------------------------------------------------------ aggregated ingestion

NAME = st.sampled_from(["main", "f", "g2"])
FIELD_PAD = st.sampled_from(["", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", " \x1f"])
NUM_PAD = st.sampled_from(["", " ", "\t"])  # int() skips these, not \x1c-\x1f
AGG_FILLER = st.sampled_from(["", "  ", "# note", "#x,1,2", "#bb", "#bbx,1,2", "#aggregated",
                              "\t#aggregated "])
EDGE = st.tuples(st.just("edge"), NAME, st.integers(0, 5), st.integers(0, 5),
                 st.integers(1, 99))
DECL = st.tuples(st.just("bb"), NAME, st.integers(0, 5), st.integers(0, 30))


def agg_oracle(items):
    """Independent reading of aggregated items: per routine in first-seen
    order, the summed count per edge and the last count per block, both in
    first-seen order."""
    graphs = {}
    for kind, name, *nums in items:
        instrs, edges = graphs.setdefault(name, ({}, Counter()))
        if kind == "edge":
            src, dst, count = nums
            edges[(src, dst)] += count
        else:
            bb, instr = nums
            instrs[bb] = instr
    return graphs


def corrupt(draw, item):
    """One item's fields as text with one fault in them, and the message
    ``ingest`` gives for it."""
    kind, name, *nums = item
    fields = [name] + [str(n) for n in nums]
    what = draw(st.sampled_from(["letter", "missing", "extra"]
                                + (["count"] if kind == "edge" else ["x1c"])))
    if what == "letter":
        i = draw(st.integers(1, len(fields) - 1))
        fields[i] += draw(st.sampled_from("axZ"))
    elif what == "missing":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif what == "extra":
        fields.insert(draw(st.integers(0, len(fields))), "7")
    elif what == "count":
        fields[3] = str(draw(st.integers(-5, 0)))
        return fields, "edge count must be >= 1"
    else:  # a #bb number field is not stripped
        i = draw(st.integers(1, 2))
        fields[i] = "\x1c" + fields[i]
    return fields, "malformed aggregated line" if kind == "edge" else "malformed #bb line"


@st.composite
def rendered_aggregates(draw):
    """An aggregated trace as text: a padded header, then drawn edge and
    ``#bb`` items with every field padded, blank, comment and extra header
    lines in between, and ``\n`` or ``\r\n`` endings.  Edges and blocks
    repeat, so counts sum and later declarations win.  In one draw in four
    one item's fields carry a fault; returns (items, text, and the line and
    message of the fault or None)."""
    items = draw(st.lists(EDGE | DECL, max_size=60))
    bad = draw(st.integers(0, len(items) - 1)) if items and draw(st.integers(0, 3)) == 0 else None
    out = [draw(st.sampled_from(["", "# head"])) + draw(EOL) for _ in range(draw(st.integers(0, 2)))]
    out.append(draw(FIELD_PAD) + "#aggregated" + draw(FIELD_PAD) + draw(EOL))
    fault = None
    for i, (kind, name, *nums) in enumerate(items):
        if draw(st.booleans()):
            out.append(draw(AGG_FILLER) + draw(EOL))
        if i == bad:
            fields, message = corrupt(draw, items[i])
        else:
            fields = [name] + [str(n) for n in nums]
        if kind == "edge":
            body = ",".join(draw(FIELD_PAD) + f + draw(FIELD_PAD) for f in fields)
        else:
            body = "#bb " + ",".join(draw(FIELD_PAD if j == 0 else NUM_PAD) + f
                                     + draw(FIELD_PAD if j == 0 else NUM_PAD)
                                     for j, f in enumerate(fields))
        out.append(draw(FIELD_PAD) + body + draw(EOL))
        if i == bad:
            fault = (len(out), f"{message}: '{out[-1].strip()}' (line {len(out)})")
            break
    return items, "".join(out), fault


@settings(max_examples=200, deadline=None)
@given(rendered_aggregates())
def test_aggregated_ingest_matches_oracle(case):
    items, text, fault = case
    if fault is not None:
        with pytest.raises(TraceError) as exc:
            ingest(io.StringIO(text))
        assert (exc.value.line, str(exc.value)) == fault
        return
    graphs = ingest(io.StringIO(text))
    expect = agg_oracle(items)
    assert list(graphs) == list(expect)
    for name, (instrs, edges) in expect.items():
        g = graphs[name]
        assert g.name == name
        assert list(g.instr_counts.items()) == list(instrs.items())
        assert list(g.edge_counts.items()) == list(edges.items())


def test_aggregated_fields_keep_their_strips():
    # str.strip() skips \x1c-\x1f and int() does not: the routine and every
    # field of an edge line are stripped, a #bb line's numbers are not
    g = ingest(["#aggregated", "\x1ff\x1c,\x1c0\x1d,\x1e1 ,\x1f5", "#bb \x1cf\x1d,0,3"])["f"]
    assert g.edge_counts == {(0, 1): 5}
    assert g.instr_counts == {0: 3}
    for bad in ("#bb f,\x1c0,5", "#bb f,0\x1c,5", "#bb f,0,\x1c5"):
        with pytest.raises(TraceError) as exc:
            ingest(["#aggregated", bad])
        assert exc.value.line == 2
        assert str(exc.value) == f"malformed #bb line: '{bad}' (line 2)"


@pytest.mark.parametrize(
    "lines,line,message",
    [
        (["# c", "", "f,0", "", "#aggregated"], 5, "mixed streaming and aggregated formats"),
        (["f,0", "f,1", "f,0", "\t#aggregated "], 4, "mixed streaming and aggregated formats"),
        (["#bb f,0,5", "#aggregated"], 1, "#bb declaration outside an aggregated trace"),
        (["", "# c", " #bb f,0,5"], 3, "#bb declaration outside an aggregated trace"),
        (["#aggregated", "f,0,1,2", "#aggregated", "f,0,1"], 4, "malformed aggregated line: 'f,0,1'"),
    ],
)
def test_aggregated_header_rules(lines, line, message):
    with pytest.raises(TraceError) as exc:
        ingest(lines)
    assert exc.value.line == line
    assert str(exc.value) == f"{message} (line {line})"


def test_header_may_follow_comments_and_repeat():
    # comment and blank lines before the header, a repeated header and the
    # bare '#bb' comment are all accepted; the routine is made at its first line
    graphs = ingest(["# made by hand", "", " #aggregated", "#bb g,4,2", "f,0,1,2", "#bb",
                     "#aggregated", "f,0,1,3", "#bbf,1,9", "g,4,4,1"])
    assert list(graphs) == ["g", "f"]
    assert graphs["f"].edge_counts == {(0, 1): 5} and graphs["f"].instr_counts == {}
    assert graphs["g"].edge_counts == {(4, 4): 1} and graphs["g"].instr_counts == {4: 2}


@pytest.mark.parametrize("pad", ["\t", " ", " \t", "\x1c"], ids=["tab", "space", "space-tab", "x1c"])
def test_bb_declaration_takes_any_whitespace(pad):
    # '#bb' and any whitespace start a declaration in both formats; '#bbf,1,9'
    # and a bare '#bb' stay comments
    graphs = ingest(["#aggregated", f"#bb{pad}f,0,5", "f,0,0,2"])
    assert graphs["f"].instr_counts == {0: 5}
    with pytest.raises(TraceError) as exc:
        ingest(["f,0", f"#bb{pad}f,0,5"])
    assert str(exc.value) == "#bb declaration outside an aggregated trace (line 2)"


@pytest.mark.parametrize("lines, line", [
    (["f,0,-3", "f,0,-3"], 1),
    (["f,0,5", "f,1", "f,0,5", "f,1", " f , 1 , -1"], 5),  # after cached lines
], ids=["first", "after-cached"])
def test_negative_streaming_instruction_count_refused(lines, line):
    with pytest.raises(TraceError) as exc:
        ingest(lines)
    assert exc.value.line == line
    assert str(exc.value) == (f"instruction count must be >= 0: '{lines[line - 1].strip()}' "
                              f"(line {line})")


def test_negative_bb_instruction_count_refused():
    with pytest.raises(TraceError) as exc:
        ingest(["#aggregated", "f,0,0,5", "#bb f,0,-3", "h,0,0,5"])
    assert str(exc.value) == "instruction count must be >= 0: '#bb f,0,-3' (line 3)"


def test_zero_instruction_count_is_legal():
    streaming = ingest(["f,0,0", "f,1,0", "f,0,0", "g,0", "g,0"])
    aggregated = ingest(["#aggregated", "f,0,1,1", "f,1,0,1", "#bb f,0,0", "#bb f,1,0",
                         "g,0,0,1"])
    for graphs in (streaming, aggregated):
        assert graphs["f"].instr_counts == {0: 0, 1: 0}
        assert graphs["f"].total_instructions() == 0
        report = prevalence_report(graphs)
        assert report.total_instructions == graphs["g"].total_instructions() == 1
        assert [r.prevalence for r in report.routines] == [0.0, 1.0]


class _CountedLine(str):
    """A line that counts how often it is hashed, as a dict lookup does."""

    def __hash__(self):
        self.hashes = getattr(self, "hashes", 0) + 1
        return super().__hash__()


def test_aggregated_lines_skip_the_line_cache():
    lines = [_CountedLine(t) for t in ("#aggregated", "f,0,1,2", "f,0,1,2", "#bb f,0,3")]
    assert ingest(lines)["f"].edge_counts == {(0, 1): 4}
    assert [getattr(line, "hashes", 0) for line in lines[1:]] == [0, 0, 0]


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


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                       st.integers(1, 4), min_size=1, max_size=24),
       st.dictionaries(st.integers(0, 6), st.integers(1, 9)),
       st.integers(1, 7), st.integers(1, 12))
def test_weighted_routes_match_brute_force(edges, instrs, max_len, max_routes):
    # few distinct counts, so many routes tie on iterations and the block
    # sequence decides their order
    g = RoutineGraph("f", instr_counts=instrs, edge_counts=edges)
    expect = sorted(
        (LoopRoute(c, min(edges[e] for e in zip(c, c[1:] + c[:1])),
                   sum(instrs.get(bb, 1) for bb in c))
         for c in brute_force_cycles(edges, max_len)),
        key=lambda r: (-r.iterations, r.blocks))
    routes, truncated = enumerate_loops(g, max_len=max_len, max_routes=max_routes)
    assert routes == expect[:max_routes]
    assert truncated == (len(expect) > max_routes)



def expected_routes(edges, instrs, max_len):
    """Every route of at most max_len blocks by brute force, in report order."""
    return sorted(
        (LoopRoute(c, min(edges[e] for e in zip(c, c[1:] + c[:1])),
                   sum(instrs.get(bb, 1) for bb in c))
         for c in brute_force_cycles(edges, max_len)),
        key=lambda r: (-r.iterations, r.blocks))


@st.composite
def joined_components(draw):
    """Edge counts over blocks split into groups, with edges inside each
    group and edges from a group only to later ones, so no cycle crosses a
    group.  Counts come from a small set, so whole levels tie, and block
    ids are shuffled across groups."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    ids = draw(st.permutations(range(sum(sizes))))
    groups, at = [], 0
    for n in sizes:
        groups.append(ids[at:at + n])
        at += n
    count = st.sampled_from([1, 2, 2, 3, 3, 3])
    edges = {}
    for gi, grp in enumerate(groups):
        inner = [(a, b) for a in grp for b in grp]
        for e in draw(st.lists(st.sampled_from(inner), max_size=3 * len(grp))):
            edges[e] = draw(count)
        later = [b for grp2 in groups[gi + 1:] for b in grp2]
        if later:
            for e in draw(st.lists(st.tuples(st.sampled_from(grp), st.sampled_from(later)),
                                   max_size=3)):
                edges[e] = draw(count)
    return edges


@settings(max_examples=200, deadline=None)
@given(joined_components(), st.dictionaries(st.integers(0, 19), st.integers(1, 9)),
       st.integers(-1, 6), st.data())
def test_routes_across_components_match_brute_force(edges, instrs, max_len, data):
    # max_routes sits at 0 or next to the number of routes at or above a
    # count level, where the search may stop
    g = RoutineGraph("f", instr_counts=instrs, edge_counts=edges)
    expect = expected_routes(edges, instrs, max_len)
    levels = sorted({r.iterations for r in expect})
    max_routes = 0
    if levels and data.draw(st.booleans()):
        level = data.draw(st.sampled_from(levels))
        at_or_above = sum(r.iterations >= level for r in expect)
        max_routes = max(0, at_or_above + data.draw(st.sampled_from([-1, 0, 1])))
    routes, truncated = enumerate_loops(g, max_len=max_len, max_routes=max_routes)
    assert routes == expect[:max_routes]
    assert truncated == (len(expect) > max_routes)


def test_route_cap_on_a_complete_digraph():
    # 10 blocks, every ordered pair and every self-loop: 1,112,073 simple
    # cycles.  Distinct counts make each edge its own level, so only the
    # edges at or above the 16th route's bottleneck can hold a kept route.
    rng = random.Random(11)
    pairs = [(a, b) for a in range(10) for b in range(10)]
    edges = dict(zip(pairs, rng.sample(range(1, 10_001), len(pairs))))
    instrs = {bb: rng.randint(1, 9) for bb in range(10)}
    g = RoutineGraph("f", instr_counts=instrs, edge_counts=edges)
    routes, truncated = enumerate_loops(g, max_routes=16)
    assert truncated and len(routes) == 16
    top = {e: c for e, c in edges.items() if c >= routes[-1].iterations}
    assert routes == expected_routes(top, instrs, DEFAULT_MAX_LEN)[:16]


def test_negative_route_cap_is_refused():
    g = RoutineGraph("f", edge_counts={(0, 0): 3, (1, 1): 2, (2, 2): 1})
    with pytest.raises(ValueError):
        enumerate_loops(g, max_routes=-1)
    with pytest.raises(ValueError):
        prevalence_report({"f": g}, max_routes=-1)
    assert enumerate_loops(g, max_len=-1) == ([], False)
    routes, truncated = enumerate_loops(g, max_routes=3)
    assert [r.blocks for r in routes] == [(0,), (1,), (2,)] and not truncated


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


@pytest.mark.parametrize("frac", [-0.01, 1.01, 2.0, float("nan")])
def test_routine_cutoff_outside_the_unit_interval_is_refused(frac):
    # a cutoff above 1 used to filter every routine and NaN none, silently
    g = ingest(["big,0,100"] * 200 + ["tiny,0,1", "tiny,1,1"])
    with pytest.raises(ValueError, match="min_routine_fraction"):
        prevalence_report(g, min_routine_fraction=frac)
    for edge, filtered in ((0, False), (1, True)):
        stats = prevalence_report(g, min_routine_fraction=edge)
        assert [r.filtered for r in stats.routines] == [filtered] * 2


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
