"""Loop-carried dependency extraction and pattern classification.

Each back edge in a graph defines one loop-carried dependency.  The
dependent path is the chain of intra-iteration operations that recomputes
the carried value, from the consumer node (where the previous iteration's
value enters) to the producer node (whose output travels on the back edge).
Dependencies are classified by how the rest of the loop body touches that
path, plus an orthogonal flag for memory traffic in the loop.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .ir import DataflowGraph, DfgError, Edge, topo_order

DEFAULT_LATENCIES = {"alu": 1, "fpu": 4, "load": 20, "store": 1, "control": 1, "sju": 1}


class LoopPattern(enum.Enum):
    SINGLE_PATH = "SinglePath"
    DIVERGING_AFTER = "DivergingAfter"
    DIVERGING_BEFORE = "DivergingBefore"
    CONSECUTIVE = "Consecutive"


class LoopCarriedDep(NamedTuple):
    back_edge: Edge
    producer: int
    consumer: int
    consumer_slot: int
    diff: int
    dependent_path: tuple[int, ...]  # consumer first, producer last, intra edges only


def path_latency(g: DataflowGraph, path, latencies=None) -> int:
    lat = latencies or DEFAULT_LATENCIES
    return sum(lat[g.node(nid).latency_class] for nid in path)


def find_deps(g: DataflowGraph, latencies=None) -> list[LoopCarriedDep]:
    """One dependency record per back edge, in declaration order.

    The dependent path is the intra-edge path consumer -> producer; when
    several exist the longest-latency one governs the stall cost and is
    chosen (ties: lexicographically smallest node sequence).  One pass per
    back edge over the intra-edge DAG in reverse topological order.
    """
    order = topo_order(g)
    if order is None:
        raise DfgError("intra-cycle", "intra-iteration edges contain a cycle")
    lat = latencies or DEFAULT_LATENCIES
    succ: dict[int, list[int]] = {}
    for e in g.intra_edges():
        succ.setdefault(e.src, []).append(e.dst)
    deps = []
    for be in g.back_edges():
        consumer, producer = be.dst, be.src
        # cost[v]: latency of the costliest path v -> producer, nxt[v] its next
        # node; paths from v differ first at that node, so the smallest id on a
        # tie is the lexicographic minimum.  The producer never extends (DAG).
        cost = {producer: lat[g.node(producer).latency_class]}
        nxt: dict[int, int] = {}
        for v in reversed(order):
            reach = [s for s in succ.get(v, ()) if s in cost]
            if reach:
                nxt[v] = min(reach, key=lambda s: (-cost[s], s))
                cost[v] = lat[g.node(v).latency_class] + cost[nxt[v]]
        if consumer not in cost:
            raise DfgError(
                "malformed-loop",
                f"back edge {producer}->{consumer}: consumer cannot reach producer",
            )
        path = [consumer]
        while path[-1] != producer:
            path.append(nxt[path[-1]])
        deps.append(
            LoopCarriedDep(be, producer, consumer, be.slot, be.diff, tuple(path))
        )
    return deps


def classify(g: DataflowGraph, dep: LoopCarriedDep,
             deps: list[LoopCarriedDep]) -> tuple[LoopPattern, bool]:
    """Classify one dependency; returns (pattern, memory flag).

    The memory flag is orthogonal: true iff the loop body contains any
    load/store, regardless of the structural pattern.
    """
    mem = any(nd.kind in ("load", "store") for nd in g.nodes)

    mine = set(dep.dependent_path)
    for other in deps:
        if other.back_edge == dep.back_edge:
            continue
        if mine & set(other.dependent_path):
            return LoopPattern.CONSECUTIVE, mem

    before = after = False
    for e in g.intra_edges():
        if e.src in mine and e.dst not in mine:
            if e.src == dep.producer:
                after = True
            else:
                before = True
    if before:
        return LoopPattern.DIVERGING_BEFORE, mem
    if after:
        return LoopPattern.DIVERGING_AFTER, mem
    return LoopPattern.SINGLE_PATH, mem


def describe_deps(g: DataflowGraph) -> list[str]:
    """One-line summaries used by the `analyze` CLI subcommand."""
    deps = find_deps(g)
    lines = []
    for dep in deps:
        pattern, mem = classify(g, dep, deps)
        cycles = path_latency(g, dep.dependent_path)
        lines.append(
            f"dep {dep.producer}->{dep.consumer} slot={dep.consumer_slot} "
            f"diff={dep.diff} pattern={pattern.value} mem={int(mem)} path_len={cycles}"
        )
    return lines
