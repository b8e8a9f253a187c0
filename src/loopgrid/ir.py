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
import math
import re
from typing import NamedTuple

from . import _FRESH, _Record

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
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


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


class Node(NamedTuple):
    id: int
    kind: str
    value: int | float | None = None  # const nodes only

    @property
    def n_inputs(self) -> int:
        return KIND_INFO[self.kind][0]

    @property
    def latency_class(self) -> str:
        return KIND_INFO[self.kind][1]


class Edge(NamedTuple):
    src: int
    dst: int
    slot: int
    kind: str = "intra"  # "intra" | "back"
    diff: int | None = None  # back edges only

    def key(self):
        return (self.src, self.dst, self.slot, self.kind)


class LiveIn(NamedTuple):
    name: str
    node: int
    slot: int
    values: tuple

    def value_for(self, thread: int):
        # Dependent slots get exactly diff values; plain inputs broadcast the
        # last listed value to all later threads.
        return self.values[thread] if thread < len(self.values) else self.values[-1]

    def column(self, n: int) -> list:
        """``value_for`` of threads 0..n-1."""
        return [*self.values[:n], *self.values[-1:] * (n - len(self.values))]


class DataflowGraph(_Record):
    _fields = ("nodes", "edges", "live_in", "live_out", "memory_image")

    def __init__(self, nodes: list[Node] = _FRESH, edges: list[Edge] = _FRESH,
                 live_in: dict[str, LiveIn] = _FRESH, live_out: list[int] = _FRESH,
                 memory_image: dict[int, int | float] = _FRESH):
        self.nodes = [] if nodes is _FRESH else nodes
        self.edges = [] if edges is _FRESH else edges
        self.live_in = {} if live_in is _FRESH else live_in
        self.live_out = [] if live_out is _FRESH else live_out
        self.memory_image = {} if memory_image is _FRESH else memory_image

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def intra_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind == "intra"]

    def back_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind == "back"]

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


class Violation(NamedTuple):
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
    bound: dict[tuple[int, int], str] = {}  # (node, slot) -> what feeds it
    liveouts: list[tuple[int, int]] = []
    pending_refs: list[tuple[int, int]] = []  # (line, node id) to check after all nodes

    def bind(nid: int, slot: int, feeder: str, lineno: int):
        # a slot takes one feeder; only a back edge may share it with a livein
        prev = bound.get((nid, slot))
        if prev is not None and {prev, feeder} != {"back", "livein"}:
            raise DfgError("duplicate-slot", f"slot {slot} of node {nid} bound twice", lineno)
        bound[(nid, slot)] = feeder if prev is None else "back+livein"

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
            bind(dst, slot, head, lineno)
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
            bind(nid, slot, head, lineno)
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# a JSON field's type -> its check; a field that passes prints as exactly the
# text that parse_dfg reads back as the same value, and nothing more
_JSON_TYPES = {
    "an integer": _is_int,
    "a number": _is_number,
    "a word": lambda v: isinstance(v, str) and re.fullmatch(r"[^\s#]+", v) is not None,
    "a non-empty list of numbers": lambda v: isinstance(v, list) and v != [] and all(
        map(_is_number, v)),
}
# JSON section -> its objects' fields, in the order of the text statement
_JSON_FIELDS = {
    "node": (("id", "an integer"), ("kind", "a word"), ("value", "a number")),
    "edge": (("src", "an integer"), ("dst", "an integer"), ("slot", "an integer")),
    "back": (("src", "an integer"), ("dst", "an integer"), ("slot", "an integer"),
             ("diff", "an integer")),
    "livein": (("name", "a word"), ("node", "an integer"), ("slot", "an integer"),
               ("values", "a non-empty list of numbers")),
    "liveout": (("node", "an integer"),),
    "mem": (("addr", "an integer"), ("value", "a number")),
}


def parse_dfg_json(text: str) -> DataflowGraph:
    """Parse the JSON form of the graph format (``dfg_to_json``'s schema).
    Every field's type is checked before it is printed as text for
    ``parse_dfg``, which makes every other check; an unknown key, a missing
    one or a value of the wrong type raises DfgError("syntax") naming it.
    A node's ``value`` is the one optional key; as in the text, a const
    needs it and any other kind ignores it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DfgError("syntax", f"bad JSON: {exc}", exc.lineno, exc.colno)
    except (ValueError, RecursionError) as exc:  # an int over 4300 digits, deep nesting
        raise DfgError("syntax", f"bad JSON: {exc}")
    if not isinstance(doc, dict):
        raise DfgError("syntax", f"document must be a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in _JSON_FIELDS:
            raise DfgError("syntax", f"unknown key {key!r}")
    lines = []
    for section, fields in _JSON_FIELDS.items():
        items = doc.get(section, [])
        if not isinstance(items, list):
            raise DfgError("syntax", f"'{section}' must be a list, got {items!r}")
        names = [name for name, _ in fields]
        for item in items:
            if not isinstance(item, dict):
                raise DfgError("syntax", f"a '{section}' entry must be an object, got {item!r}")
            for key in item:
                if key not in names:
                    raise DfgError("syntax", f"unknown key {key!r} in a '{section}' entry")
            words = [section]
            for name, kind in fields:
                if name not in item:
                    if section == "node" and name == "value":
                        continue
                    raise DfgError("syntax", f"missing key '{name}' in a '{section}' entry")
                v = item[name]
                if not _JSON_TYPES[kind](v):
                    raise DfgError("syntax", f"'{section}' {name!r} must be {kind}, got {v!r}")
                words += map(str, v) if isinstance(v, list) else [str(v)]
            lines.append(" ".join(words))
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

    # (node, slot) -> the edges and the liveins feeding it, indexed once
    edges_in: dict[tuple[int, int], list[Edge]] = {}
    liveins_in: dict[tuple[int, int], list[LiveIn]] = {}
    for e in g.edges:
        for nid in (e.src, e.dst):
            if not 0 <= nid < n:
                out.append(Violation("dangling-reference", f"edge endpoint {nid} missing"))
        if (e.dst, e.slot) in edges_in:
            out.append(Violation("duplicate-slot", f"slot {e.slot} of node {e.dst} bound twice"))
        edges_in.setdefault((e.dst, e.slot), []).append(e)
        if e.kind == "back" and (e.diff is None or e.diff < 1):
            out.append(Violation("bad-diff", f"back edge {e.src}->{e.dst} diff={e.diff}"))
        if 0 <= e.dst < n and not 0 <= e.slot < g.node(e.dst).n_inputs:
            out.append(Violation("arity-mismatch",
                                 f"node {e.dst} ({g.node(e.dst).kind}) has no slot {e.slot}"))
    for lv in g.live_in.values():
        if 0 <= lv.node < n and not 0 <= lv.slot < g.node(lv.node).n_inputs:
            out.append(Violation("arity-mismatch", f"livein '{lv.name}': node {lv.node} "
                                 f"({g.node(lv.node).kind}) has no slot {lv.slot}"))
        if not lv.values:
            out.append(Violation("livein-length", f"livein '{lv.name}' has no values"))
        liveins_in.setdefault((lv.node, lv.slot), []).append(lv)

    # every non-const input slot fed exactly once (a back edge plus its livein
    # counts as one feeder)
    for nd in g.nodes:
        for slot in range(nd.n_inputs):
            srcs = edges_in.get((nd.id, slot), [])
            lvs = liveins_in.get((nd.id, slot), [])
            if not srcs and not lvs:
                out.append(Violation("unfed-slot", f"slot {slot} of node {nd.id} has no input"))
            if any(e.kind == "intra" for e in srcs) and lvs:
                out.append(Violation("duplicate-slot",
                                     f"slot {slot} of node {nd.id} has both edge and livein"))
            if len(lvs) > 1:
                out.append(Violation("duplicate-slot",
                                     f"slot {slot} of node {nd.id} has {len(lvs)} liveins"))

    # intra edges must form a DAG
    if topo_order(g) is None:
        out.append(Violation("intra-cycle", "intra-iteration edges contain a cycle"))

    # dependent slots need initial values covering threads < diff
    per_node: dict[int, int] = {}  # dependent input slots per node
    for (nid, slot), srcs in edges_in.items():
        diffs = [e.diff for e in srcs if e.kind == "back"]
        if not diffs:
            continue
        per_node[nid] = per_node.get(nid, 0) + 1
        lvs = liveins_in.get((nid, slot))
        if not lvs:
            out.append(Violation("missing-livein",
                                 f"dependent slot {slot} of node {nid} has no initial values",
                                 "warning"))
        elif len(lvs[0].values) != diffs[-1]:
            out.append(Violation("livein-length",
                                 f"slot {slot} of node {nid} needs {diffs[-1]} initial values"))

    # a unit supports at most one dependent input slot (warning: grid mapping rejects it)
    for nid, cnt in per_node.items():
        if cnt > 1:
            out.append(Violation("multi-dependent-input",
                                 f"node {nid} has {cnt} dependent input slots", "warning"))

    for nid in g.live_out:
        if not 0 <= nid < n:
            out.append(Violation("dangling-reference", f"liveout node {nid} missing"))

    dsts = {e.dst for e in g.edges}
    srcs = {e.src for e in g.edges}
    for nd in g.nodes:
        if nd.kind == "const" and nd.id in dsts:
            out.append(Violation("const-input", f"const node {nd.id} has inputs"))
        if nd.kind == "sink" and nd.id in srcs:
            out.append(Violation("sink-output", f"sink node {nd.id} has outputs"))

    out += [Violation("memory-carried", msg) for msg in memory_carried(g)]
    return out


def memory_carried(g: DataflowGraph) -> list[str]:
    """One message per load and store whose addresses can be equal.

    The simulator does not order a load after an older thread's store, so
    such a pair can make it disagree with the reference.  An address slot
    takes a const producer's value or a live-in's listed values; an address
    any other producer computes is unknown and is not refused.
    """
    kinds = {nd.id: nd.kind for nd in g.nodes}
    consts = {nd.id: nd.value for nd in g.nodes if nd.kind == "const"}
    addrs: dict[int, set | None] = {nid: set() for nid, k in kinds.items()
                                    if k in ("load", "store")}
    for e in g.edges:
        if e.slot == 0 and addrs.get(e.dst) is not None:
            if e.src in consts:
                addrs[e.dst].add(consts[e.src])
            else:
                addrs[e.dst] = None
    for lv in g.live_in.values():
        if lv.slot == 0 and addrs.get(lv.node) is not None:
            addrs[lv.node].update(lv.values)
    known = [(nid, a) for nid, a in addrs.items() if a]
    return [f"load {ld} and store {st} can both use address {min(la & sa)}"
            for ld, la in known if kinds[ld] == "load"
            for st, sa in known if kinds[st] == "store" and la & sa]


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


def _add(a, b, memory):
    r = a + b
    return r if _I64_MIN <= r <= _I64_MAX or not isinstance(r, int) else wrap64(r)


def _sub(a, b, memory):
    r = a - b
    return r if _I64_MIN <= r <= _I64_MAX or not isinstance(r, int) else wrap64(r)


def _mul(a, b, memory):
    r = a * b
    return r if _I64_MIN <= r <= _I64_MAX or not isinstance(r, int) else wrap64(r)


def _bitwise(kind: str, f):
    def op(a, b, memory):
        for x in (a, b):
            if isinstance(x, float) and not math.isfinite(x):
                raise ExecError("non-finite", f"'{kind}' needs an integer, got {x}")
        return wrap64(f(int(a), int(b)))
    return op


def _fdiv(a, b, memory):
    if float(b) == 0.0:
        raise ExecError("fdiv-zero", "float division by zero")
    return float(a) / float(b)


def _load(a, b, memory):
    if a not in memory:
        raise ExecError("bad-address", f"load from unmapped address {a}")
    return memory[a]


def _store(a, b, memory):
    memory[a] = b
    return b


# kind -> op(a, b, memory) for the interpreter and the simulator (b is None for
# a one-input kind; a const has no op); add, sub and mul wrap only off int64
OPS = {
    "add": _add,
    "sub": _sub,
    "mul": _mul,
    "cmp": lambda a, b, memory: 1 if a < b else 0,
    "and": _bitwise("and", lambda a, b: a & b),
    "or": _bitwise("or", lambda a, b: a | b),
    "shift": _bitwise("shift", lambda a, b: a << (b & 63)),
    "fadd": lambda a, b, memory: float(a) + float(b),
    "fmul": lambda a, b, memory: float(a) * float(b),
    "fdiv": _fdiv,
    "load": _load,
    "store": _store,
    # predicated pass-through: forward the value when the predicate holds
    "control": lambda a, b, memory: b if a else 0,
    "splitjoin": lambda a, b, memory: a,
    "sink": lambda a, b, memory: a,
}


def eval_op(kind: str, a, b, memory: dict):
    """Evaluate one operation through ``OPS``."""
    op = OPS.get(kind)
    if op is None:
        raise ExecError("bad-kind", f"cannot evaluate kind '{kind}'")
    return op(a, b, memory)


def reference_execute(g: DataflowGraph, n_threads: int) -> list[dict[int, object]]:
    """Run iterations 0..n_threads-1 strictly in order; the functional oracle.

    Returns, per thread, a map live-out node id -> produced value.  Latencies
    never matter here: the result is a pure function of the input values.
    """
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
            vals[nid] = OPS[nd.kind](a, b, memory)
        history.append(vals)
        results.append({nid: vals[nid] for nid in g.live_out})
    return results
