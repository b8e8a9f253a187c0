"""Placement, routing, and feedback attachment on the unit grid."""

import json
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from loopgrid.analysis import LoopPattern, classify, find_deps
from loopgrid.grid import (
    COMPUTE,
    CONTROL,
    LDST,
    PORT,
    SJU,
    UNIT_CLASSES,
    GridSpec,
    MapError,
    _bfs_order,
    attach_feedback,
    default_grid,
    kind_class,
    load_grid,
    manhattan,
    map_graph,
    place,
    route,
)
from loopgrid.ir import DfgError, load_dfg, parse_dfg, reference_execute
from loopgrid.sim import MachineParams, simulate

from _random_graphs import random_dfg
from conftest import DEEP_JSON, FIXTURES

FIXTURE_DFGS = [str(p) for p in sorted(FIXTURES.glob("*.dfg"))]


def test_default_grid_layout():
    spec = default_grid()
    assert (spec.rows, spec.cols) == (8, 8)
    assert len(spec.unit_map) == 64
    for r in range(8):
        assert spec.unit_map[(r, 0)] == LDST and spec.unit_map[(r, 1)] == LDST
        assert spec.unit_map[(r, 2)] == (CONTROL if r % 2 == 0 else SJU)
        for c in range(3, 8):
            assert spec.unit_map[(r, c)] == COMPUTE


def test_grid_spec_json_round_trip(tmp_path):
    spec = default_grid()
    blob = json.dumps(spec.to_json())
    again = GridSpec.from_json(json.loads(blob))
    assert again.unit_map == spec.unit_map
    assert again.latencies == spec.latencies
    assert (again.hop_latency, again.token_buffer_depth) == (1, 16)


@pytest.mark.parametrize("bad", [
    {"hop_latency": -1},
    {"latencies": {"alu": 0}},
    {"latencies": {"load": -3}},
    {"token_buffer_depth": 0},
], ids=["hop", "alu", "load", "depth"])
def test_grid_spec_rejects_latencies_the_simulator_cannot_schedule(bad):
    # an event scheduled at or before its own cycle would never be delivered
    with pytest.raises(ValueError):
        GridSpec.from_json({**default_grid().to_json(), **bad})
    with pytest.raises(ValueError):
        GridSpec(**bad)


@pytest.mark.parametrize("key", ["unit_map", "latencies"])
def test_grid_spec_refuses_a_missing_mapping(key):
    # None is no grid layout or latency table: refused by name, not with an
    # AttributeError from the checks that read it
    with pytest.raises(ValueError, match=f"{key} must be a JSON object, got NoneType"):
        GridSpec(**{key: None})


@pytest.mark.parametrize("key", [5, ("a", "b"), (0,), (True, 0)],
                         ids=["int", "strings", "one-int", "bool"])
def test_grid_spec_refuses_a_unit_map_key_that_is_no_cell(key):
    # a spec built in code used to fail with a TypeError or an unpacking error
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        GridSpec(unit_map={key: "COMPUTE"})


def test_grid_spec_built_in_code_needs_every_latency_class(fixtures):
    # map_graph would look up the missing class and raise a bare KeyError
    with pytest.raises(ValueError, match="latency class 'fpu' is missing"):
        GridSpec(unit_map=default_grid().unit_map, latencies={"alu": 1})
    # from_json takes the missing classes from the defaults
    spec = GridSpec.from_json({**default_grid().to_json(), "latencies": {"alu": 1}})
    map_graph(load_dfg(str(fixtures / "wrf_mem.dfg")), spec)


@pytest.mark.parametrize("doc", [
    [default_grid().to_json()],
    {"unit_map": ["0,0"]},
    {"latencies": [["alu", 1]]},
    {"latencies": {"alu": "2"}},
    {"latencies": {"alus": 2}},
    {"token_buffer_depth": "4"},
    {"hop_latency": 1.5},
    {"rows": 0},
    {"rows": 2, "cols": 2, "unit_map": {"0,0": "LDST", "5,5": "COMPUTE"}},
    {"unit_map": {"0,-1": "COMPUTE"}},
    {"unit_map": {"0,0": "GPU"}},
    {"row": 3},
    {"unit_map": {"00": "LDST"}},
], ids=["list", "unit-map-list", "latencies-list", "string-latency", "unknown-latency",
        "string-depth", "float-hop", "no-rows", "cell-outside", "negative-cell", "unknown-class",
        "unknown-key", "cell-without-comma"])
def test_grid_spec_rejects_malformed_documents(doc):
    # each used to load silently or fail with AttributeError, TypeError or an
    # unpacking error that named neither the key nor the field
    with pytest.raises(ValueError):
        GridSpec.from_json(doc)


@pytest.mark.parametrize("doc, key", [
    ({"rows": 4, "row": 3}, "row"),
    ({"unit_map": {"0,0": "LDST", "00": "LDST"}}, "00"),
])
def test_grid_spec_errors_name_the_bad_key(doc, key):
    with pytest.raises(ValueError, match=repr(key)):
        GridSpec.from_json(doc)


def test_load_grid_refuses_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    with pytest.raises(ValueError, match="bad JSON"):
        load_grid(str(path))


def test_mapping_cost_ignores_the_declared_grid_size(fixtures):
    # the cost tables cover only the rows and columns that hold cells, so
    # a million declared rows around the 8x8 unit map cost next to nothing
    g = load_dfg(str(fixtures / "scenario1.dfg"))
    spec = GridSpec.from_json({**default_grid().to_json(), "rows": 1_000_000})
    tracemalloc.start()
    try:
        cfg = map_graph(g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert cfg.to_json() == map_graph(g).to_json()


def test_zero_hop_latency_still_simulates(fixtures):
    # zero-latency routes deliver during emission and stay legal
    spec = GridSpec.from_json({**default_grid().to_json(), "hop_latency": 0})
    for name in ("scenario2.dfg", "scenario5.dfg"):
        g = load_dfg(str(fixtures / name))
        cfg = map_graph(g, spec)
        assert all(r.latency == 0 for r in cfg.routes.values())
        for mode in ("dr", "baseline"):
            rep = simulate(cfg, g, MachineParams(mode=mode, n_threads=12))
            assert rep.live_out == reference_execute(g, 12), (name, mode)


def test_kind_class():
    assert kind_class("load") == LDST
    assert kind_class("store") == LDST
    assert kind_class("control") == CONTROL
    assert kind_class("splitjoin") == SJU
    for k in ("add", "mul", "fadd", "const"):
        assert kind_class(k) == COMPUTE


def test_manhattan():
    assert manhattan((0, 0), (0, 0)) == 0
    assert manhattan((0, 0), (2, 3)) == 5
    assert manhattan((4, 1), (1, 5)) == 7


def test_placement_respects_unit_classes(fixtures):
    g = load_dfg(str(fixtures / "scenario4.dfg"))
    spec = default_grid()
    placement = place(g, spec)
    for nd in g.nodes:
        assert spec.unit_map[placement[nd.id]] == kind_class(nd.kind)


def test_placement_deterministic(fixtures):
    g = load_dfg(str(fixtures / "scenario3.dfg"))
    a = map_graph(g).to_json()
    b = map_graph(g).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_capacity_exceeded():
    lines = ["node 0 const 1"]
    for i in range(1, 4):
        lines.append(f"node {i} load")
        lines.append(f"edge 0 {i} 0")
    lines.append("liveout 3")
    g = parse_dfg("\n".join(lines))
    g.memory_image = {1: 0}
    tiny = GridSpec(rows=1, cols=3, unit_map={
        (0, 0): LDST, (0, 1): LDST, (0, 2): COMPUTE})
    with pytest.raises(MapError) as exc:
        place(g, tiny)
    assert exc.value.code == "capacity-exceeded"


def test_route_latency_matches_distance(fixtures):
    g = load_dfg(str(fixtures / "scenario2.dfg"))
    spec = default_grid()
    placement = place(g, spec)
    routes = route(placement, g, spec)
    for e in g.edges:
        r = routes[e.key()]
        d = manhattan(placement[e.src], placement[e.dst])
        assert r.latency == d * spec.hop_latency
        assert len(r.path) == d + 1
        assert r.path[0] == placement[e.src]
        assert r.path[-1] == placement[e.dst]


def test_self_feedback_attachment(fixtures):
    # accumulator: producer == consumer, no extra grid node needed
    g = load_dfg(str(fixtures / "scenario1.dfg"))
    cfg = map_graph(g)
    assert len(cfg.feedback) == 1
    f = cfg.feedback[0]
    assert f.self_loop and f.eor_node is None
    assert f.extra_latency == 0 and f.feedback_latency == 1
    assert all(att.eor_node is None for att in cfg.feedback)
    assert list(cfg.to_json()["selector_init"].values()) == [1]  # switch after thread < diff


def test_remote_feedback_gets_update_node(fixtures):
    # producer and consumer differ: an update node lands on a free cell
    g = load_dfg(str(fixtures / "scenario3.dfg"))
    cfg = map_graph(g)
    assert len(cfg.feedback) == 1
    f = cfg.feedback[0]
    assert not f.self_loop
    assert f.eor_node == len(g.nodes)
    assert cfg.spec.unit_map[f.eor_cell] == COMPUTE
    assert f.eor_cell not in set(cfg.placement.values())
    p, c = cfg.placement[f.producer], cfg.placement[f.consumer]
    assert f.extra_latency == (
        manhattan(p, f.eor_cell) + manhattan(f.eor_cell, c)) * cfg.spec.hop_latency
    assert f.feedback_latency == 1 + f.extra_latency
    # the chosen cell minimizes the detour over all free cells of its class
    used = set(cfg.placement.values())
    best = min(manhattan(p, cell) + manhattan(cell, c)
               for cell in cfg.spec.cells_of(COMPUTE) if cell not in used)
    assert manhattan(p, f.eor_cell) + manhattan(f.eor_cell, c) == best


def test_consecutive_deps_fall_back_to_spill(fixtures):
    g = load_dfg(str(fixtures / "scenario5.dfg"))
    cfg = map_graph(g)
    assert cfg.feedback == []
    assert len(cfg.baseline_only) == 3


def test_dual_dependency_rejected():
    g = parse_dfg(
        "node 0 add\nback 0 0 0 1\nback 0 0 1 1\n"
        "livein a 0 0 0\nlivein b 0 1 1\nliveout 0"
    )
    with pytest.raises(MapError) as exc:
        map_graph(g)
    assert exc.value.code == "unsupported-dual-dependency"


def test_reinjection_latency_from_port(fixtures):
    g = load_dfg(str(fixtures / "scenario1.dfg"))
    cfg = map_graph(g)
    dep = find_deps(g)[0]
    assert PORT == (0, 0)
    assert cfg.reinjection_latency(dep.consumer) == manhattan(
        (0, 0), cfg.placement[dep.consumer]) * cfg.spec.hop_latency


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_map_random_graphs(seed):
    g = random_dfg(seed)
    cfg = map_graph(g)
    cells = list(cfg.placement.values())
    assert len(cells) == len(set(cells))  # one node per cell
    for nd in g.nodes:
        assert cfg.spec.unit_map[cfg.placement[nd.id]] == kind_class(nd.kind)
    for e in g.edges:
        assert cfg.routes[e.key()].latency == manhattan(
            cfg.placement[e.src], cfg.placement[e.dst])


def test_map_rejects_intra_cycle(data_dir):
    with pytest.raises(DfgError) as exc:
        map_graph(load_dfg(str(data_dir / "intra_cycle.dfg")))
    assert exc.value.code == "intra-cycle"


def test_map_refuses_memory_carried_graph(data_dir):
    with pytest.raises(MapError) as exc:
        map_graph(load_dfg(str(data_dir / "memory_carried.dfg")))
    assert exc.value.code == "memory-carried"


def test_map_refuses_a_computed_address(data_dir):
    # both modes used to return [1] * 8 here, against the reference's 1..8
    with pytest.raises(MapError, match="the address node 1 computes") as exc:
        map_graph(load_dfg(str(data_dir / "computed_address.dfg")))
    assert exc.value.code == "memory-carried"


@pytest.mark.parametrize("mode", ["baseline", "dr"])
def test_disjoint_load_and_store_map_and_match_reference(data_dir, mode):
    # the same body storing to 100 instead: no thread reads another's store
    text = (data_dir / "memory_carried.dfg").read_text()
    g = parse_dfg(text.replace("edge 0 4 0", "node 5 const 100\nedge 5 4 0"))
    rep = simulate(map_graph(g), g, MachineParams(mode=mode, n_threads=8))
    assert rep.live_out == reference_execute(g, 8) == [{3: 1}] * 8


def _brute_nearest(cells, anchors):
    # the mapper's search before it was split into row and column costs
    return min(cells, key=lambda cell: (sum(manhattan(cell, a) for a in anchors), cell))


def _brute_place(g, spec):
    """Placement by scanning every free cell."""
    need = Counter(kind_class(nd.kind) for nd in g.nodes)
    for cls, cnt in sorted(need.items()):
        if cnt > len(spec.cells_of(cls)):
            raise MapError("capacity-exceeded",
                           f"{cnt} {cls} nodes but only {len(spec.cells_of(cls))} cells")
    preds = {nd.id: [e.src for e in g.intra_edges() if e.dst == nd.id] for nd in g.nodes}
    free = {cls: spec.cells_of(cls) for cls in UNIT_CLASSES}
    placement = {}
    for nid in _bfs_order(g):
        cells = free[kind_class(g.node(nid).kind)]
        anchors = [placement[p] for p in preds[nid] if p in placement]
        placement[nid] = _brute_nearest(cells, anchors)
        cells.remove(placement[nid])
    return placement


def _brute_update_cells(g, spec, placement):
    """Update-node cells, in dependency order, by scanning every free cell."""
    deps = find_deps(g, spec.latencies)
    used = set(placement.values())
    free = [c for c in spec.cells_of(COMPUTE) if c not in used]
    cells = []
    for dep in deps:
        if dep.producer == dep.consumer or classify(g, dep, deps)[0] is LoopPattern.CONSECUTIVE:
            continue
        if not free:
            raise MapError("capacity-exceeded", "no free COMPUTE cell for update node")
        cells.append(_brute_nearest(free, [placement[dep.producer], placement[dep.consumer]]))
        free.remove(cells[-1])
    return cells


def _update_cells(g, spec, placement):
    cfg = attach_feedback(g, find_deps(g, spec.latencies), placement, spec)
    return [f.eor_cell for f in cfg.feedback if f.eor_cell is not None]


def _result_or_refusal(fn, *args):
    try:
        return fn(*args)
    except MapError as exc:
        return exc.code, str(exc)


@st.composite
def graphs_on_drawn_grids(draw):
    """A random or bundled graph on a unit map sized to it: each class gets
    one cell fewer than the graph needs, exactly enough, or a few more (a
    class nothing needs may get none), scattered with holes over a 1xN, Nx1
    or rectangular grid.  The COMPUTE need may count the update nodes."""
    g = draw(st.one_of(st.integers(min_value=0, max_value=10_000).map(random_dfg),
                       st.sampled_from(FIXTURE_DFGS).map(load_dfg)))
    need = Counter(kind_class(nd.kind) for nd in g.nodes)
    deps = find_deps(g)
    if draw(st.booleans()):
        need[COMPUTE] += sum(dep.producer != dep.consumer
                             and classify(g, dep, deps)[0] is not LoopPattern.CONSECUTIVE
                             for dep in deps)
    labels = [cls for cls in UNIT_CLASSES
              for _ in range(max(0, need[cls] + draw(st.sampled_from([-1, 0, 0, 1, 2, 4]))))]
    labels += [None] * draw(st.integers(min_value=0, max_value=6))
    total = max(1, len(labels))
    shape = draw(st.sampled_from(["row", "column", "rectangle"]))
    if shape == "row":
        rows, cols = 1, total
    elif shape == "column":
        rows, cols = total, 1
    else:
        cols = draw(st.integers(min_value=1, max_value=total))
        rows = -(-total // cols)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    labels = draw(st.permutations(labels + [None] * (len(cells) - len(labels))))
    spec = GridSpec(rows=rows, cols=cols,
                    unit_map={cell: k for cell, k in zip(cells, labels) if k})
    return g, spec


@settings(max_examples=300, deadline=None)
@given(graphs_on_drawn_grids(), st.randoms(use_true_random=False))
def test_placement_and_update_cells_match_brute_force_search(case, rnd):
    g, spec = case
    placement = _result_or_refusal(place, g, spec)
    assert placement == _result_or_refusal(_brute_place, g, spec)
    if isinstance(placement, tuple):
        return
    # update nodes on the mapper's placement, whose producers and consumers
    # tend to sit side by side, and on one scattered over the grid
    pools = {cls: rnd.sample(spec.cells_of(cls), len(spec.cells_of(cls))) for cls in UNIT_CLASSES}
    scattered = {nd.id: pools[kind_class(nd.kind)].pop() for nd in g.nodes}
    for pl in (placement, scattered):
        assert (_result_or_refusal(_update_cells, g, spec, pl)
                == _result_or_refusal(_brute_update_cells, g, spec, pl))
