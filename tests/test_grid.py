"""Placement, routing, and feedback attachment on the unit grid."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from loopgrid.analysis import find_deps
from loopgrid.grid import (
    COMPUTE,
    CONTROL,
    LDST,
    SJU,
    GridSpec,
    MapError,
    attach_feedback,
    default_grid,
    kind_class,
    manhattan,
    map_graph,
    place,
    route,
)
from loopgrid.ir import load_dfg, parse_dfg

from _random_graphs import random_dfg


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
    assert cfg.port == (0, 0)
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
