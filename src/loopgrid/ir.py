"""Loop-body dataflow IR.

A DataflowGraph describes one loop body as operation nodes, intra-iteration
edges and cross-iteration back edges.  Each back edge carries a ``diff``:
the iteration distance between the producer of a loop-carried value and its
consumer.  The module provides the textual/JSON formats, validation, and a
strictly sequential reference interpreter that serves as the functional
oracle for the cycle-level simulator.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

ALU_OPS = ("add", "sub", "mul", "cmp", "and", "or", "shift")
FPU_OPS = ("fadd", "fmul", "fdiv")

# kind -> (input arity, latency class)
KIND_INFO = {}
KIND_INFO.update({op: (2, "alu") for op in ALU_OPS})
KIND_INFO.update({op: (2, "fpu") for op in FPU_OPS})
KIND_INFO.update(
    {
        "load": (1, "load"),
        "store": (2, "store"),
        "control": (2, "control"),
        "splitjoin": (1, "sju"),
        "const": (0, "alu"),
        "sink": (1, "alu"),
    }
)

_I64_MASK = (1 << 64) - 1


def wrap64(v: int) -> int:
    """Wrap an int to signed 64-bit two's complement."""
    v &= _I64_MASK
    return v - (1 << 64) if v >= (1 << 63) else v


class DfgError(Exception):
    """IR error with a stable machine-readable code."""

    def __init__(self, code: str, message: str, line: int | None = None, col: int | None = None):
        self.code = code
        self.line = line
        self.col = col
        loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")" if line else ""
        super().__init__(f"{code}: {message}{loc}")


class ExecError(Exception):
    """Reference-interpreter runtime error."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class Node:
    id: int
    kind: str
    value: int | float | None = None  # const nodes only

    @property
    def n_inputs(self) -> int:
        return KIND_INFO[self.kind][0]

    @property
    def latency_class(self) -> str:
        return KIND_INFO[self.kind][1]


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    slot: int
    kind: str = "intra"  # "intra" | "back"
    diff: int | None = None  # back edges only

    def key(self):
        return (self.src, self.dst, self.slot, self.kind)


@dataclass(frozen=True)
class LiveIn:
    name: str
    node: int
    slot: int
    values: tuple

    def value_for(self, thread: int):
        # Dependent slots get exactly diff values; plain inputs broadcast the
        # last listed value to all later threads.
        return self.values[thread] if thread < len(self.values) else self.values[-1]


@dataclass
class DataflowGraph:
    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    live_in: dict[str, LiveIn] = field(default_factory=dict)
    live_out: list[int] = field(default_factory=list)
    memory_image: dict[int, int | float] = field(default_factory=dict)

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def intra_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind == "intra"]

    def back_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind == "back"]

    def in_edges(self, nid: int) -> list[Edge]:
        return [e for e in self.edges if e.dst == nid]

    def out_edges(self, nid: int) -> list[Edge]:
        return [e for e in self.edges if e.src == nid]

    def slot_feeders(self, nid: int) -> dict[int, object]:
        """Map input slot -> the Edge or LiveIn feeding it (edges win ties)."""
        feeders: dict[int, object] = {}
        for lv in self.live_in.values():
            if lv.node == nid:
                feeders[lv.slot] = lv
        for e in self.edges:
            if e.dst == nid:
                feeders[e.slot] = e
        return feeders

    def dependent_slots(self) -> dict[tuple[int, int], Edge]:
        """Map (node, slot) -> back edge feeding it."""
        return {(e.dst, e.slot): e for e in self.back_edges()}


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    severity: str = "error"  # "error" | "warning"


# ---------------------------------------------------------------------------
# Parsing / printing


def _parse_scalar(tok: str):
    try:
        return int(tok, 0)
    except ValueError:
        try:
            return float(tok)
        except ValueError:
            return None


def parse_dfg(text: str) -> DataflowGraph:
    """Parse the line-oriented textual IR.  Raises DfgError on any defect."""
    g = DataflowGraph()
    seen_slots: set[tuple[int, int]] = set()
    liveouts: list[tuple[int, int]] = []
    pending_refs: list[tuple[int, int]] = []  # (line, node id) to check after all nodes

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head, args = toks[0], toks[1:]

        def want_int(i: int) -> int:
            if i >= len(args):
                raise DfgError("syntax", f"'{head}' missing argument {i + 1}", lineno)
            try:
                return int(args[i], 0)
            except ValueError:
                col = [m.start() for m in re.finditer(r"\S+", raw)][i + 1] + 1
                raise DfgError("syntax", f"expected integer, got '{args[i]}'", lineno, col)

        if head == "node":
            nid = want_int(0)
            if len(args) < 2:
                raise DfgError("syntax", "'node' needs a kind", lineno)
            kind = args[1]
            if kind not in KIND_INFO:
                raise DfgError("bad-kind", f"unknown node kind '{kind}'", lineno)
            value = None
            if kind == "const":
                if len(args) < 3:
                    raise DfgError("syntax", "'const' node needs a value", lineno)
                value = _parse_scalar(args[2])
                if value is None:
                    raise DfgError("syntax", f"bad const value '{args[2]}'", lineno)
            if nid != len(g.nodes):
                raise DfgError("syntax", f"node ids must be dense 0..N-1, got {nid}", lineno)
            g.nodes.append(Node(nid, kind, value))
        elif head in ("edge", "back"):
            src, dst, slot = want_int(0), want_int(1), want_int(2)
            pending_refs += [(lineno, src), (lineno, dst)]
            if (dst, slot) in seen_slots:
                raise DfgError("duplicate-slot", f"slot {slot} of node {dst} bound twice", lineno)
            seen_slots.add((dst, slot))
            if head == "back":
                diff = want_int(3)
                if diff < 1:
                    raise DfgError("syntax", f"back-edge diff must be >= 1, got {diff}", lineno)
                g.edges.append(Edge(src, dst, slot, "back", diff))
            else:
                g.edges.append(Edge(src, dst, slot))
        elif head == "livein":
            if len(args) < 4:
                raise DfgError("syntax", "'livein' needs name, node, slot, values", lineno)
            name = args[0]
            nid, slot = want_int(1), want_int(2)
            values = tuple(_parse_scalar(v) for v in args[3:])
            if any(v is None for v in values):
                raise DfgError("syntax", "bad livein value", lineno)
            if name in g.live_in:
                raise DfgError("duplicate-slot", f"livein '{name}' declared twice", lineno)
            pending_refs.append((lineno, nid))
            g.live_in[name] = LiveIn(name, nid, slot, values)
        elif head == "liveout":
            liveouts.append((lineno, want_int(0)))
        elif head == "mem":
            addr = want_int(0)
            if len(args) < 2:
                raise DfgError("syntax", "'mem' needs a value", lineno)
            value = _parse_scalar(args[1])
            if value is None:
                raise DfgError("syntax", f"bad mem value '{args[1]}'", lineno)
            g.memory_image[addr] = value
        else:
            raise DfgError("syntax", f"unknown declaration '{head}'", lineno, raw.index(head) + 1)

    n = len(g.nodes)
    for lineno, nid in pending_refs + liveouts:
        if not 0 <= nid < n:
            raise DfgError("dangling-reference", f"node {nid} is not declared", lineno)
    g.live_out = [nid for _, nid in liveouts]
    return g


def format_dfg(g: DataflowGraph) -> str:
    """Print a graph back to its textual form (round-trips with parse_dfg)."""
    out = []
    for nd in g.nodes:
        out.append(f"node {nd.id} {nd.kind}" + (f" {nd.value}" if nd.kind == "const" else ""))
    for e in g.edges:
        if e.kind == "back":
            out.append(f"back {e.src} {e.dst} {e.slot} {e.diff}")
        else:
            out.append(f"edge {e.src} {e.dst} {e.slot}")
    for lv in g.live_in.values():
        vals = " ".join(str(v) for v in lv.values)
        out.append(f"livein {lv.name} {lv.node} {lv.slot} {vals}")
    for nid in g.live_out:
        out.append(f"liveout {nid}")
    for addr in sorted(g.memory_image):
        out.append(f"mem {addr} {g.memory_image[addr]}")
    return "\n".join(out) + "\n"


def dfg_to_json(g: DataflowGraph) -> dict:
    return {
        "node": [
            {"id": nd.id, "kind": nd.kind, **({"value": nd.value} if nd.kind == "const" else {})}
            for nd in g.nodes
        ],
        "edge": [{"src": e.src, "dst": e.dst, "slot": e.slot} for e in g.intra_edges()],
        "back": [
            {"src": e.src, "dst": e.dst, "slot": e.slot, "diff": e.diff} for e in g.back_edges()
        ],
        "livein": [
            {"name": lv.name, "node": lv.node, "slot": lv.slot, "values": list(lv.values)}
            for lv in g.live_in.values()
        ],
        "liveout": [{"node": nid} for nid in g.live_out],
        "mem": [{"addr": a, "value": v} for a, v in sorted(g.memory_image.items())],
    }


def parse_dfg_json(text: str) -> DataflowGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DfgError("syntax", f"bad JSON: {exc}", exc.lineno, exc.colno)
    lines = []
    try:
        for nd in doc.get("node", []):
            value = f" {nd['value']}" if "value" in nd else ""
            lines.append(f"node {nd['id']} {nd['kind']}{value}")
        for e in doc.get("edge", []):
            lines.append(f"edge {e['src']} {e['dst']} {e['slot']}")
        for e in doc.get("back", []):
            lines.append(f"back {e['src']} {e['dst']} {e['slot']} {e['diff']}")
        for lv in doc.get("livein", []):
            vals = " ".join(str(v) for v in lv["values"])
            lines.append(f"livein {lv['name']} {lv['node']} {lv['slot']} {vals}")
        for lo in doc.get("liveout", []):
            lines.append(f"liveout {lo['node']}")
        for m in doc.get("mem", []):
            lines.append(f"mem {m['addr']} {m['value']}")
    except KeyError as exc:
        raise DfgError("syntax", f"missing key {exc}")
    except (AttributeError, TypeError) as exc:
        raise DfgError("syntax", f"malformed document: {exc}")
    return parse_dfg("\n".join(lines))


def load_dfg(path: str) -> DataflowGraph:
    """Load a graph from a .dfg text file or a .json file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".json"):
        return parse_dfg_json(text)
    return parse_dfg(text)


# ---------------------------------------------------------------------------
# Validation


def validate(g: DataflowGraph) -> list[Violation]:
    """Check all structural invariants; returns one Violation per breach."""
    out: list[Violation] = []
    n = len(g.nodes)

    for i, nd in enumerate(g.nodes):
        if nd.id != i:
            out.append(Violation("non-dense-ids", f"node {nd.id} at position {i}"))

    seen: set[tuple[int, int]] = set()
    for e in g.edges:
        for nid in (e.src, e.dst):
            if not 0 <= nid < n:
                out.append(Violation("dangling-reference", f"edge endpoint {nid} missing"))
        if (e.dst, e.slot) in seen:
            out.append(Violation("duplicate-slot", f"slot {e.slot} of node {e.dst} bound twice"))
        seen.add((e.dst, e.slot))
        if e.kind == "back" and (e.diff is None or e.diff < 1):
            out.append(Violation("bad-diff", f"back edge {e.src}->{e.dst} diff={e.diff}"))
        if 0 <= e.dst < n and e.slot >= g.node(e.dst).n_inputs:
            out.append(Violation("arity-mismatch",
                                 f"node {e.dst} ({g.node(e.dst).kind}) has no slot {e.slot}"))
    for lv in g.live_in.values():
        if 0 <= lv.node < n and lv.slot >= g.node(lv.node).n_inputs:
            out.append(Violation("arity-mismatch", f"livein '{lv.name}': node {lv.node} "
                                 f"({g.node(lv.node).kind}) has no slot {lv.slot}"))

    # every non-const input slot fed exactly once
    for nd in g.nodes:
        for slot in range(nd.n_inputs):
            srcs = [e for e in g.edges if e.dst == nd.id and e.slot == slot]
            lvs = [lv for lv in g.live_in.values() if lv.node == nd.id and lv.slot == slot]
            if not srcs and not lvs:
                out.append(Violation("unfed-slot", f"slot {slot} of node {nd.id} has no input"))
            if srcs and any(e.kind == "intra" for e in srcs) and lvs:
                out.append(Violation("duplicate-slot",
                                     f"slot {slot} of node {nd.id} has both edge and livein"))

    # intra edges must form a DAG
    if topo_order(g) is None:
        out.append(Violation("intra-cycle", "intra-iteration edges contain a cycle"))

    # dependent slots need initial values covering threads < diff
    for (nid, slot), be in g.dependent_slots().items():
        lvs = [lv for lv in g.live_in.values() if lv.node == nid and lv.slot == slot]
        if not lvs:
            out.append(Violation("missing-livein",
                                 f"dependent slot {slot} of node {nid} has no initial values",
                                 "warning"))
        elif len(lvs[0].values) != be.diff:
            out.append(Violation("livein-length",
                                 f"slot {slot} of node {nid} needs {be.diff} initial values"))

    # a unit supports at most one dependent input slot (warning: grid mapping rejects it)
    per_node: dict[int, int] = {}
    for (nid, _slot) in g.dependent_slots():
        per_node[nid] = per_node.get(nid, 0) + 1
    for nid, cnt in per_node.items():
        if cnt > 1:
            out.append(Violation("multi-dependent-input",
                                 f"node {nid} has {cnt} dependent input slots", "warning"))

    for nid in g.live_out:
        if not 0 <= nid < n:
            out.append(Violation("dangling-reference", f"liveout node {nid} missing"))

    for nd in g.nodes:
        if nd.kind == "const" and g.in_edges(nd.id):
            out.append(Violation("const-input", f"const node {nd.id} has inputs"))
        if nd.kind == "sink" and g.out_edges(nd.id):
            out.append(Violation("sink-output", f"sink node {nd.id} has outputs"))

    return out


def topo_order(g: DataflowGraph) -> list[int] | None:
    """Topological order over intra edges, or None if they contain a cycle."""
    indeg = {nd.id: 0 for nd in g.nodes}
    succ: dict[int, list[int]] = {nd.id: [] for nd in g.nodes}
    for e in g.intra_edges():
        if e.src in succ and e.dst in indeg:
            succ[e.src].append(e.dst)
            indeg[e.dst] += 1
    ready = sorted(nid for nid, d in indeg.items() if d == 0)
    order = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for s in succ[nid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
        ready.sort()
    return order if len(order) == len(g.nodes) else None


# ---------------------------------------------------------------------------
# Reference interpreter


def eval_op(kind: str, a, b, memory: dict):
    """Evaluate one operation; shared by the interpreter and the simulator."""
    if kind == "add":
        r = a + b
        return wrap64(r) if isinstance(r, int) else r
    if kind == "sub":
        r = a - b
        return wrap64(r) if isinstance(r, int) else r
    if kind == "mul":
        r = a * b
        return wrap64(r) if isinstance(r, int) else r
    if kind == "cmp":
        return 1 if a < b else 0
    if kind == "and":
        return wrap64(int(a) & int(b))
    if kind == "or":
        return wrap64(int(a) | int(b))
    if kind == "shift":
        return wrap64(int(a) << (int(b) & 63))
    if kind == "fadd":
        return float(a) + float(b)
    if kind == "fmul":
        return float(a) * float(b)
    if kind == "fdiv":
        if float(b) == 0.0:
            raise ExecError("fdiv-zero", "float division by zero")
        return float(a) / float(b)
    if kind == "load":
        if a not in memory:
            raise ExecError("bad-address", f"load from unmapped address {a}")
        return memory[a]
    if kind == "store":
        memory[a] = b
        return b
    if kind == "control":
        # predicated pass-through: forward the value when the predicate holds
        return b if a else 0
    if kind in ("splitjoin", "sink"):
        return a
    raise ExecError("bad-kind", f"cannot evaluate kind '{kind}'")


def reference_execute(g: DataflowGraph, n_threads: int, params=None) -> list[dict[int, object]]:
    """Run iterations 0..n_threads-1 strictly in order; the functional oracle.

    Returns, per thread, a map live-out node id -> produced value.  Latencies
    never matter here: the result is a pure function of the input values.
    """
    del params  # interpreter output is latency-independent by contract
    order = topo_order(g)
    if order is None:
        raise ExecError("intra-cycle", "graph is not executable")
    feeders = {nd.id: g.slot_feeders(nd.id) for nd in g.nodes}
    memory = dict(g.memory_image)
    history: list[dict[int, object]] = []  # per thread: node id -> value
    results: list[dict[int, object]] = []

    for t in range(n_threads):
        vals: dict[int, object] = {}
        for nid in order:
            nd = g.node(nid)
            if nd.kind == "const":
                vals[nid] = nd.value
                continue
            ins = []
            for slot in range(nd.n_inputs):
                feeder = feeders[nid].get(slot)
                if feeder is None:
                    raise ExecError("unfed-slot", f"slot {slot} of node {nid} has no input")
                if isinstance(feeder, Edge) and feeder.kind == "intra":
                    ins.append(vals[feeder.src])
                elif isinstance(feeder, Edge):  # back edge
                    if t >= feeder.diff:
                        ins.append(history[t - feeder.diff][feeder.src])
                    else:
                        lv = next((l for l in g.live_in.values()
                                   if l.node == nid and l.slot == slot), None)
                        if lv is None:
                            raise ExecError("missing-livein",
                                            f"thread {t} needs an initial value for "
                                            f"slot {slot} of node {nid}")
                        ins.append(lv.value_for(t))
                else:  # live-in
                    ins.append(feeder.value_for(t))
            a = ins[0] if ins else None
            b = ins[1] if len(ins) > 1 else None
            vals[nid] = eval_op(nd.kind, a, b, memory)
        history.append(vals)
        results.append({nid: vals[nid] for nid in g.live_out})
    return results
