"""Seeded input generators for the many-graphs and trace-mine workloads.

Every generated input is one item of a fixed pool: item ``i`` of a kind is
a pure function of ``(POOL_SEED, kind, i)``.  A run's ``--seed`` only picks
which pool items a pass uses and in which order, so the expected digest of
every item can be recorded once (``record.py``) and checked on any seed.
Nothing here imports from ``tests/``: edits to the test helpers cannot
change the benchmark's load.
"""

from __future__ import annotations

import random

POOL_SEED = 20240527

# pool sizes; a pass samples from these
SMALL_POOL = 1200
CHAIN_DEPTHS = (11, 12, 13, 14)
CHAIN_POOL = 6  # variants per depth
TRACE_POOL = 8  # variants per trace kind

ALU = ("add", "add", "sub", "mul", "and", "or", "cmp", "shift")
READ_ADDRS = (0, 1, 2, 3)
SCRATCH_ADDRS = (100, 101, 102, 103)
ARITY = {"load": 1, "splitjoin": 1, "const": 0}


def _rng(kind: str, index: int) -> random.Random:
    return random.Random(f"{POOL_SEED}/{kind}/{index}")


def _arity(kind: str) -> int:
    return ARITY.get(kind, 2)


class _Text:
    """Accumulates a graph in the textual IR, in declaration order."""

    def __init__(self):
        self.kinds: list[str] = []
        self.lines: list[str] = []
        self.tail: list[str] = []

    def node(self, kind: str, value=None) -> int:
        nid = len(self.kinds)
        self.kinds.append(kind)
        self.lines.append(f"node {nid} {kind}" + (f" {value}" if kind == "const" else ""))
        return nid

    def text(self) -> str:
        return "\n".join(self.lines + self.tail) + "\n"


def small_graph(index: int) -> tuple[str, int]:
    """A criterion-1-style loop body: at most a dozen nodes, up to two
    loop-carried dependencies, loads only from read-only addresses and
    stores only to a disjoint scratch range, so the sequential reference
    and the simulator must agree.  About one graph in thirty gives one
    node two dependent slots, which the mapper refuses with a typed error.
    Returns (graph text, thread count)."""
    rng = _rng("small", index)
    t = _Text()
    mem = {a: rng.randint(-40, 40) for a in READ_ADDRS}
    consts = [t.node("const", rng.randint(-9, 9)) for _ in range(rng.randint(1, 3))]
    addr = t.node("const", rng.choice(READ_ADDRS))
    producers = list(consts) + [addr]
    feeds: dict[tuple[int, int], str] = {}  # (node, slot) -> "edge src" | "livein"
    n_live = 0

    def feed(nid, slot):
        if rng.random() < 0.75:
            feeds[(nid, slot)] = f"edge {rng.choice(producers)}"
        else:
            feeds[(nid, slot)] = "livein"

    ops = []
    for _ in range(rng.randint(2, 9)):
        r = rng.random()
        kind = (rng.choice(ALU) if r < 0.70 else rng.choice(("fadd", "fmul")) if r < 0.80
                else "load" if r < 0.88 else "store" if r < 0.93
                else "control" if r < 0.97 else "splitjoin")
        nid = t.node(kind)
        if kind == "load":
            feeds[(nid, 0)] = f"edge {addr}"
        elif kind == "store":
            feeds[(nid, 0)] = f"edge {t.node('const', rng.choice(SCRATCH_ADDRS))}"
            feed(nid, 1)
        else:
            for slot in range(_arity(kind)):
                feed(nid, slot)
        producers.append(nid)
        ops.append(nid)

    # dependent slots: never a load/store address slot
    succ: dict[int, list[int]] = {}
    for (dst, _slot), how in feeds.items():
        if how.startswith("edge"):
            succ.setdefault(int(how.split()[1]), []).append(dst)
    backs = []
    consumers = rng.sample(ops, min(rng.randint(0, 2), len(ops)))
    if consumers and rng.random() < 1 / 30:
        consumers = consumers[:1] * 2  # dual dependency on one node
    used: set[tuple[int, int]] = set()
    for c in consumers:
        kind = t.kinds[c]
        slots = [s for s in range(_arity(kind))
                 if not (kind in ("load", "store") and s == 0) and (c, s) not in used]
        if not slots:
            continue
        slot = rng.choice(slots)
        reach, stack = set(), [c]
        while stack:
            n = stack.pop()
            if n not in reach:
                reach.add(n)
                stack.extend(succ.get(n, ()))
        cands = sorted(p for p in reach if t.kinds[p] != "const")
        if not cands:
            continue
        used.add((c, slot))
        diff = rng.randint(1, 3)
        backs.append((rng.choice(cands), c, slot, diff))
        feeds[(c, slot)] = "back"

    for (dst, slot), how in sorted(feeds.items()):
        if how.startswith("edge"):
            t.lines.append(f"edge {how.split()[1]} {dst} {slot}")
        elif how == "livein":
            t.tail.append(f"livein in{n_live} {dst} {slot} {rng.randint(-9, 9)}")
            n_live += 1
    for src, dst, slot, diff in backs:
        t.lines.append(f"back {src} {dst} {slot} {diff}")
        seeds = " ".join(str(rng.randint(-9, 9)) for _ in range(diff))
        t.tail.append(f"livein carry{n_live} {dst} {slot} {seeds}")
        n_live += 1
    for nid in sorted(rng.sample(ops, rng.randint(1, min(3, len(ops))))):
        t.tail.append(f"liveout {nid}")
    for a, v in sorted(mem.items()):
        t.tail.append(f"mem {a} {v}")
    return t.text(), rng.choice((4, 6, 8, 12))


def chain_graph(depth: int, index: int) -> tuple[str, int]:
    """A loop-carried value recomputed through ``depth`` diamonds in series:
    2**depth consumer-to-producer paths for find_deps to rank.  About
    3*depth nodes, so it needs the larger grid of ``chain_grid``.  Variants
    of one depth differ only in operation kinds and constants, so they cost
    the same to analyse and simulate."""
    rng = _rng(f"chain{depth}", index)
    t = _Text()
    k1 = t.node("const", rng.randint(1, 5))
    k2 = t.node("const", rng.randint(1, 5))
    head = t.node("add")
    t.lines.append(f"edge {k1} {head} 1")
    tail = head
    for _ in range(depth):
        left, right = t.node(rng.choice(("add", "sub"))), t.node(rng.choice(("add", "or")))
        join = t.node(rng.choice(("add", "sub", "and")))
        t.lines += [f"edge {tail} {left} 0", f"edge {k1} {left} 1",
                    f"edge {k2} {right} 0", f"edge {tail} {right} 1",
                    f"edge {left} {join} 0", f"edge {right} {join} 1"]
        tail = join
    t.lines.append(f"back {tail} {head} 0 1")
    t.tail.append(f"livein x {head} 0 {rng.randint(0, 9)}")
    t.tail.append(f"liveout {tail}")
    return t.text(), 8


def chain_grid() -> dict:
    """GridSpec JSON for diamond chains: 10x10, the default column layout
    widened to seven compute columns (70 compute cells)."""
    unit_map = {}
    for r in range(10):
        for c in range(10):
            unit_map[f"{r},{c}"] = ("LDST" if c < 2 else
                                    ("CONTROL" if r % 2 == 0 else "SJU") if c == 2 else "COMPUTE")
    return {"rows": 10, "cols": 10, "unit_map": unit_map}


# ---------------------------------------------------------------------------
# traces


def streaming_trace(index: int, n_lines: int = 240_000) -> str:
    """A streaming trace (``routine,bb,instrs`` per executed block) of four
    routines, each a structured loop nest with an if/else in every loop,
    interleaved in bursts as calls would be."""
    rng = _rng("stream", index)
    walkers = []
    for r in range(4):
        instrs = [rng.randint(1, 30) for _ in range(12)]
        walkers.append((f"r{r}", instrs, _loop_nest_walk(rng)))
    out = []
    while len(out) < n_lines:
        name, instrs, walk = rng.choice(walkers)
        for _ in range(rng.randint(50, 400)):
            bb = next(walk)
            out.append(f"{name},{bb},{instrs[bb]}")
    return "\n".join(out[:n_lines]) + "\n"


def _loop_nest_walk(rng: random.Random):
    """Endless block sequence of: 0 -> outer loop [1, inner loop [2, 3|4, 5], 6|7, 8] -> 9..11 -> 0."""
    while True:
        yield 0
        for _ in range(rng.randint(3, 12)):
            yield 1
            for _ in range(rng.randint(2, 20)):
                yield 2
                yield 3 if rng.random() < 0.7 else 4
                yield 5
            yield 6 if rng.random() < 0.5 else 7
            yield 8
        yield from (9, 10, 11)


def sparse_trace(index: int, n_blocks: int = 2000) -> str:
    """An aggregated trace whose main routine is a long sparse CFG:
    a fall-through chain with a short loop (some with an if/else) every
    few blocks, plus small helper routines below the 1% cutoff."""
    rng = _rng("sparse", index)
    lines = ["#aggregated"]
    edges: dict[tuple[int, int], int] = {}
    b = 0
    while b < n_blocks - 1:
        edges[(b, b + 1)] = edges.get((b, b + 1), 0) + rng.randint(1, 5)
        if b % 10 == 5 and b + 4 < n_blocks:
            span = rng.randint(1, 4)
            edges[(b + span, b)] = rng.randint(5, 500)
            if span >= 2 and rng.random() < 0.5:
                edges[(b, b + 2)] = rng.randint(1, 50)
        b += 1
    lines += [f"main,{s},{d},{c}" for (s, d), c in sorted(edges.items())]
    lines += [f"#bb main,{bb},{rng.randint(1, 12)}" for bb in range(n_blocks)]
    for h in range(3):
        lines += [f"helper{h},0,1,2", f"helper{h},1,0,1", f"#bb helper{h},0,3"]
    return "\n".join(lines) + "\n"


def dense_trace(index: int) -> str:
    """An aggregated trace of two dense routines: every ordered block pair
    of an 8-block routine (16072 simple cycles, over the route cap) and of
    a 6-block routine (409 cycles, under it)."""
    rng = _rng("dense", index)
    lines = ["#aggregated"]
    for name, n in (("hot", 8), ("warm", 6)):
        for s in range(n):
            for d in range(n):
                lines.append(f"{name},{s},{d},{rng.randint(1, 1000)}")
        lines += [f"#bb {name},{bb},{rng.randint(1, 20)}" for bb in range(n)]
    return "\n".join(lines) + "\n"
