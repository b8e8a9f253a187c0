"""Seeded random dataflow graphs for equivalence and round-trip testing.

Graphs stay small (<= 12 nodes, <= 2 back edges, diff <= 3 unless a wider
``max_diff`` is asked for) and keep memory usage conflict-free: loads only
read image addresses that are never stored, stores only hit a disjoint
scratch range.  That makes the sequential reference interpreter and the
tagged-token simulator agree exactly.
"""

import random

from loopgrid.ir import DataflowGraph, Edge, LiveIn, Node

ALU_CHOICES = ["add", "add", "sub", "mul", "and", "or", "cmp"]
READ_ADDRS = (0, 1, 2, 3)
SCRATCH_ADDRS = (100, 101, 102, 103)


def random_dfg(seed: int, max_diff: int = 3) -> DataflowGraph:
    """A seeded graph; a back edge's diff, and so its live-in seed count, is
    drawn from 1..max_diff (above a buffer depth, seeding and carried tokens
    contend for one slot)."""
    rng = random.Random(seed)
    g = DataflowGraph()
    g.memory_image = {a: rng.randint(-50, 50) for a in READ_ADDRS}

    def add_node(kind, value=None):
        nd = Node(len(g.nodes), kind, value)
        g.nodes.append(nd)
        return nd.id

    n_const = rng.randint(1, 3)
    consts = [add_node("const", rng.randint(-20, 20)) for _ in range(n_const)]
    addr_const = add_node("const", rng.choice(READ_ADDRS))
    consts.append(addr_const)

    livein_n = 0

    def feed(nid, slot, producers):
        nonlocal livein_n
        if producers and rng.random() < 0.75:
            g.edges.append(Edge(rng.choice(producers), nid, slot))
        else:
            name = f"in{livein_n}"
            livein_n += 1
            g.live_in[name] = LiveIn(name, nid, slot, (rng.randint(-20, 20),))

    n_ops = rng.randint(2, 8)
    producers = list(consts)
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.70:
            kind = rng.choice(ALU_CHOICES)
        elif r < 0.80:
            kind = rng.choice(["fadd", "fmul"])
        elif r < 0.88:
            kind = "load"
        elif r < 0.93:
            kind = "store"
        elif r < 0.97:
            kind = "control"
        else:
            kind = "splitjoin"
        nid = add_node(kind)
        if kind == "load":
            g.edges.append(Edge(addr_const, nid, 0))
        elif kind == "store":
            scratch = add_node("const", rng.choice(SCRATCH_ADDRS))
            g.edges.append(Edge(scratch, nid, 0))
            feed(nid, 1, producers)
        else:
            for slot in range(g.nodes[nid].n_inputs):
                feed(nid, slot, producers)
        producers.append(nid)
        ops.append(nid)

    # carve out dependent slots, then wire back edges to reachable producers
    n_back = rng.randint(0, 2)
    consumers = rng.sample(ops, min(n_back, len(ops)))
    slots = {}
    for c in consumers:
        slot = rng.randrange(g.nodes[c].n_inputs) if g.nodes[c].n_inputs else None
        if slot is None or (g.nodes[c].kind in ("load", "store") and slot == 0):
            continue  # keep memory addresses static
        g.edges = [e for e in g.edges if not (e.dst == c and e.slot == slot)]
        for name in [n for n, lv in g.live_in.items() if lv.node == c and lv.slot == slot]:
            del g.live_in[name]
        slots[c] = slot

    succ = {}
    for e in g.edges:
        if e.kind == "intra":
            succ.setdefault(e.src, []).append(e.dst)
    for c, slot in slots.items():
        reach, stack = set(), [c]
        while stack:
            n = stack.pop()
            if n in reach:
                continue
            reach.add(n)
            stack.extend(succ.get(n, []))
        cands = sorted(p for p in reach if g.nodes[p].kind != "const")
        name = f"in{livein_n}"
        livein_n += 1
        if cands:
            p = rng.choice(cands)
            diff = rng.randint(1, max_diff)
            g.edges.append(Edge(p, c, slot, "back", diff))
            g.live_in[name] = LiveIn(
                name, c, slot, tuple(rng.randint(-10, 10) for _ in range(diff)))
        else:
            g.live_in[name] = LiveIn(name, c, slot, (rng.randint(-20, 20),))

    g.live_out = sorted(rng.sample(ops, rng.randint(1, min(3, len(ops)))))
    return g
