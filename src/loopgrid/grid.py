"""Placement and static routing of a dataflow graph onto a heterogeneous grid.

The grid is a rows x cols array of cells, each hosting at most one node of a
matching unit class.  Edges become fixed routes charged pure manhattan hop
latency (the interconnect is contention-free by design).  Loop-carried back
edges are realized in-grid by a retagging feedback attachment on the
producer unit: the producer's result, with its thread id bumped by the
dependency's diff, is written into the consumer's dependent input slot.  A
selector on that slot serves externally supplied initial values for the
first ``diff`` threads and feedback values from then on.  When producer and
consumer are different units (including every diverging-before dependency)
an end-of-route update node re-broadcasts the final value back to the
consumer, paying its route latency.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import _FRESH, _Record
from .analysis import DEFAULT_LATENCIES, LoopCarriedDep, LoopPattern, classify, find_deps
from .ir import DataflowGraph, memory_carried

COMPUTE, LDST, CONTROL, SJU = "COMPUTE", "LDST", "CONTROL", "SJU"
UNIT_CLASSES = (COMPUTE, LDST, CONTROL, SJU)

# the cell where a spilled value leaves the grid and re-enters it
PORT = (0, 0)

# node kind -> unit class hosting it
KIND_CLASS = {"load": LDST, "store": LDST, "control": CONTROL, "splitjoin": SJU}


def kind_class(kind: str) -> str:
    return KIND_CLASS.get(kind, COMPUTE)


class MapError(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class GridSpec(_Record):
    _fields = ("rows", "cols", "unit_map", "latencies", "hop_latency", "token_buffer_depth")

    def __init__(self, rows: int = 8, cols: int = 8,
                 unit_map: dict[tuple[int, int], str] = _FRESH,
                 latencies: dict[str, int] = _FRESH, hop_latency: int = 1,
                 token_buffer_depth: int = 16):
        self.rows = rows
        self.cols = cols
        self.unit_map = {} if unit_map is _FRESH else unit_map
        self.latencies = dict(DEFAULT_LATENCIES) if latencies is _FRESH else latencies
        self.hop_latency = hop_latency
        self.token_buffer_depth = token_buffer_depth
        _require_int("rows", self.rows, 1)
        _require_int("cols", self.cols, 1)
        # every scheduled arrival and completion must lie strictly after the
        # cycle that schedules it; a zero-hop route is delivered in place
        _require_int("hop_latency", self.hop_latency, 0)
        _require_object("latencies", self.latencies)
        for cls, lat in self.latencies.items():
            if cls not in DEFAULT_LATENCIES:
                raise ValueError(f"unknown latency class {cls!r}")
            _require_int(f"latency of '{cls}'", lat, 1)
        for cls in DEFAULT_LATENCIES:
            if cls not in self.latencies:
                raise ValueError(f"latency class {cls!r} is missing")
        _require_int("token_buffer_depth", self.token_buffer_depth, 1)
        _require_object("unit_map", self.unit_map)
        for (r, c), k in self.unit_map.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"cell ({r},{c}) lies outside the {self.rows}x{self.cols} grid")
            if k not in UNIT_CLASSES:
                raise ValueError(f"cell ({r},{c}) has unknown unit class {k!r}")

    def cells_of(self, cls: str) -> list[tuple[int, int]]:
        return sorted(c for c, k in self.unit_map.items() if k == cls)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "unit_map": {f"{r},{c}": k for (r, c), k in sorted(self.unit_map.items())},
            "latencies": self.latencies,
            "hop_latency": self.hop_latency,
            "token_buffer_depth": self.token_buffer_depth,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GridSpec":
        _require_object("grid spec", doc)
        for key in doc:
            if key not in cls._fields:
                raise ValueError(f"unknown grid spec key {key!r}")
        cells = doc.get("unit_map", {})
        latencies = doc.get("latencies", {})
        _require_object("unit_map", cells)
        _require_object("latencies", latencies)
        unit_map = {}
        for key, k in cells.items():
            r, _, c = key.partition(",")
            try:
                unit_map[(int(r), int(c))] = k
            except ValueError:
                raise ValueError(f"unit_map key {key!r} is not '<row>,<col>'") from None
        return cls(
            rows=doc.get("rows", 8),
            cols=doc.get("cols", 8),
            unit_map=unit_map,
            latencies={**DEFAULT_LATENCIES, **latencies},
            hop_latency=doc.get("hop_latency", 1),
            token_buffer_depth=doc.get("token_buffer_depth", 16),
        )


def _require_int(name: str, value, low: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _require_object(name: str, value) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")


def _read_json(path: str):
    """The JSON document in a file.  A document nested too deeply for
    ``json`` raises ``ValueError``, as every other bad document does."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"bad JSON: {exc}") from None


def default_grid() -> GridSpec:
    """8x8 grid: columns 0-1 load/store, column 2 control and split/join
    interleaved by row, columns 3-7 compute."""
    unit_map = {}
    for r in range(8):
        for c in range(8):
            if c < 2:
                unit_map[(r, c)] = LDST
            elif c == 2:
                unit_map[(r, c)] = CONTROL if r % 2 == 0 else SJU
            else:
                unit_map[(r, c)] = COMPUTE
    return GridSpec(unit_map=unit_map)


def load_grid(path: str) -> GridSpec:
    return GridSpec.from_json(_read_json(path))


def manhattan(a: tuple[int, int], b: tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


class Route(NamedTuple):
    path: tuple[tuple[int, int], ...]
    latency: int


class FeedbackAttachment(_Record):
    """In-grid realization of one loop-carried dependency."""

    _fields = ("edge_key", "producer", "consumer", "consumer_slot", "diff", "self_loop",
               "eor_node", "eor_cell", "extra_latency")

    def __init__(self, edge_key: tuple, producer: int, consumer: int, consumer_slot: int,
                 diff: int, self_loop: bool, eor_node: int | None = None,
                 eor_cell: tuple[int, int] | None = None, extra_latency: int = 0):
        self.edge_key = edge_key
        self.producer = producer
        self.consumer = consumer
        self.consumer_slot = consumer_slot
        self.diff = diff
        self.self_loop = self_loop
        self.eor_node = eor_node  # end-of-route update node, when producer != consumer
        self.eor_cell = eor_cell
        # routing cycles beyond the single feedback-write cycle
        self.extra_latency = extra_latency

    @property
    def feedback_latency(self) -> int:
        # one cycle to write the retagged result back, plus any re-broadcast route
        return 1 + self.extra_latency


class GridConfig(_Record):
    _fields = ("spec", "placement", "routes", "feedback", "baseline_only")

    def __init__(self, spec: GridSpec, placement: dict[int, tuple[int, int]],
                 routes: dict[tuple, Route], feedback: list[FeedbackAttachment],
                 baseline_only: list[tuple]):
        self.spec = spec
        self.placement = placement
        self.routes = routes
        self.feedback = feedback
        # back-edge keys with no in-grid feedback (consecutive)
        self.baseline_only = baseline_only

    def reinjection_latency(self, consumer: int) -> int:
        """Hop cost of re-entering the grid at the I/O port and reaching the
        consumer cell; charged on top of the flat spill latency."""
        return manhattan(PORT, self.placement[consumer]) * self.spec.hop_latency

    def to_json(self) -> dict:
        return {
            "placement": {str(n): list(c) for n, c in sorted(self.placement.items())},
            "routes": [
                {"edge": list(k), "path": [list(c) for c in r.path], "latency": r.latency}
                for k, r in sorted(self.routes.items())
            ],
            "feedback": [
                {
                    "edge": list(f.edge_key),
                    "producer": f.producer,
                    "consumer": f.consumer,
                    "slot": f.consumer_slot,
                    "diff": f.diff,
                    "self_loop": f.self_loop,
                    "eor_node": f.eor_node,
                    "eor_cell": list(f.eor_cell) if f.eor_cell else None,
                    "feedback_latency": f.feedback_latency,
                }
                for f in self.feedback
            ],
            # edge key -> threads served by the original input
            "selector_init": {",".join(map(str, k)): diff
                              for k, diff in sorted((f.edge_key, f.diff) for f in self.feedback)},
            "baseline_only": [list(k) for k in self.baseline_only],
        }


def place(g: DataflowGraph, spec: GridSpec) -> dict[int, tuple[int, int]]:
    """Greedy deterministic placement.

    Nodes are taken in BFS order from the graph sources; each goes to the
    free class-correct cell minimizing summed manhattan distance to its
    already-placed intra predecessors (ties: lowest (row, col)), see
    ``_nearest``; a node with no placed predecessor takes its class's first
    free cell.
    """
    free: dict[str, list[tuple[int, int]]] = {cls: [] for cls in UNIT_CLASSES}
    for cell, cls in spec.unit_map.items():
        free[cls].append(cell)
    for cells in free.values():
        cells.sort()
    need: dict[str, int] = {}
    for nd in g.nodes:
        need[kind_class(nd.kind)] = need.get(kind_class(nd.kind), 0) + 1
    for cls, cnt in sorted(need.items()):
        if cnt > len(free[cls]):
            raise MapError("capacity-exceeded",
                           f"{cnt} {cls} nodes but only {len(free[cls])} cells")

    order = _bfs_order(g)
    preds: dict[int, list[int]] = {nd.id: [] for nd in g.nodes}
    for e in g.intra_edges():
        preds[e.dst].append(e.src)

    placement: dict[int, tuple[int, int]] = {}
    for nid in order:
        cells = free[kind_class(g.node(nid).kind)]
        anchors = [placement[p] for p in preds[nid] if p in placement]
        placement[nid] = cells.pop(_nearest(cells, anchors))
    return placement


def _nearest(cells: list[tuple[int, int]], anchors: list[tuple[int, int]]) -> int:
    """Index in ``cells`` (sorted, non-empty) of the cell with the least
    summed manhattan distance to ``anchors``; the lowest (row, col) wins a
    tie.  Each anchor adds its distance to every cell's cost in one pass, so
    a search costs one pass per anchor over ``cells``, whatever the declared
    size of the grid."""
    if not anchors:
        return 0
    (a, b), *rest = anchors
    costs = [abs(r - a) + abs(c - b) for r, c in cells]
    for a, b in rest:
        costs = [x + abs(r - a) + abs(c - b) for x, (r, c) in zip(costs, cells)]
    return costs.index(min(costs))


def _bfs_order(g: DataflowGraph) -> list[int]:
    has_in = {e.dst for e in g.intra_edges()}
    sources = sorted(nd.id for nd in g.nodes if nd.id not in has_in)
    succ: dict[int, list[int]] = {nd.id: [] for nd in g.nodes}
    for e in g.intra_edges():
        succ[e.src].append(e.dst)
    seen = list(sources)
    seen_set = set(sources)
    i = 0
    while i < len(seen):
        for s in sorted(succ[seen[i]]):
            if s not in seen_set:
                seen_set.add(s)
                seen.append(s)
        i += 1
    for nid in sorted(nd.id for nd in g.nodes):
        if nid not in seen_set:
            seen.append(nid)
    return seen


def _l_path(a: tuple[int, int], b: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """Row-first L-shaped cell path from a to b inclusive."""
    cells = [a]
    r, c = a
    step = 1 if b[0] > r else -1
    while r != b[0]:
        r += step
        cells.append((r, c))
    step = 1 if b[1] > c else -1
    while c != b[1]:
        c += step
        cells.append((r, c))
    return tuple(cells)


def route(placement: dict[int, tuple[int, int]], g: DataflowGraph,
          spec: GridSpec) -> dict[tuple, Route]:
    """Static contention-free routes: latency = manhattan hops * hop latency."""
    routes = {}
    for e in g.edges:
        a, b = placement[e.src], placement[e.dst]
        routes[e.key()] = Route(_l_path(a, b), manhattan(a, b) * spec.hop_latency)
    return routes


def attach_feedback(g: DataflowGraph, deps: list[LoopCarriedDep],
                    placement: dict[int, tuple[int, int]],
                    spec: GridSpec) -> GridConfig:
    """Decide, per dependency, how the back edge is realized in the grid."""
    per_node: dict[int, int] = {}
    for dep in deps:
        per_node[dep.consumer] = per_node.get(dep.consumer, 0) + 1
    for nid, cnt in per_node.items():
        if cnt > 1:
            raise MapError("unsupported-dual-dependency",
                           f"node {nid} has {cnt} dependent input slots; hardware serves one")

    routes = route(placement, g, spec)
    used = set(placement.values())
    free_compute = [c for c in spec.cells_of(COMPUTE) if c not in used]
    next_id = len(g.nodes)

    feedback: list[FeedbackAttachment] = []
    baseline_only: list[tuple] = []

    for dep in deps:
        pattern, _mem = classify(g, dep, deps)
        key = dep.back_edge.key()
        if pattern is LoopPattern.CONSECUTIVE:
            baseline_only.append(key)
            continue
        att = FeedbackAttachment(
            edge_key=key,
            producer=dep.producer,
            consumer=dep.consumer,
            consumer_slot=dep.consumer_slot,
            diff=dep.diff,
            self_loop=dep.producer == dep.consumer,
        )
        if not att.self_loop:
            # produce at the end of the route, re-broadcast to the consumer
            pc, cc = placement[dep.producer], placement[dep.consumer]
            if not free_compute:
                raise MapError("capacity-exceeded", "no free COMPUTE cell for update node")
            cell = free_compute.pop(_nearest(free_compute, [pc, cc]))
            att.eor_node = next_id
            next_id += 1
            att.eor_cell = cell
            att.extra_latency = (manhattan(pc, cell) + manhattan(cell, cc)) * spec.hop_latency
        feedback.append(att)

    return GridConfig(
        spec=spec,
        placement=placement,
        routes=routes,
        feedback=feedback,
        baseline_only=baseline_only,
    )


def map_graph(g: DataflowGraph, spec: GridSpec | None = None) -> GridConfig:
    """Full pipeline: dependency analysis, placement, routing, feedback."""
    spec = spec or default_grid()
    deps = find_deps(g, spec.latencies)
    carried = memory_carried(g)
    if carried:
        raise MapError("memory-carried", carried[0])
    placement = place(g, spec)
    return attach_feedback(g, deps, placement, spec)
