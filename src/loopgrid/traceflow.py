"""Basic-block trace analytics: loop routes and their run-time prevalence.

Input traces record, per routine, which basic blocks executed (streaming
one event per line) or the already-aggregated block-to-block edge counts.
Each basic block ends in exactly one jump, so routines become small
directed graphs; closed routes (simple cycles) in those graphs are loop
bodies.  Route iteration counts use the bottleneck (minimum) edge count
along the cycle, which is conservative and independent of enumeration
order.  Run time is proxied by dynamic instruction counts throughout, and
block execution counts are derived from edge counts (max of in/out
traversals) so streaming and aggregated inputs agree exactly.

Routes are found in report order, so the work follows the routes kept,
not all the routes a routine has.  One strongly-connected-component pass
drops the edges that join two components, which close no cycle.  The
remaining edges are added in descending count order, and each added edge
closes the cycles whose bottleneck it is.  The search stops after the
first count level at which more routes are found than the cap keeps.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from . import _FRESH, _Record

DEFAULT_MAX_LEN = 32
DEFAULT_MAX_ROUTES = 4096
MIN_ROUTINE_FRACTION = 0.01
_LINE_CACHE_MAX = 4096  # distinct streaming lines ingest keeps parsed


class TraceError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message + (f" (line {line})" if line else ""))


class RoutineGraph(_Record):
    _fields = ("name", "instr_counts", "edge_counts")

    def __init__(self, name: str, instr_counts: dict[int, int] = _FRESH,
                 edge_counts: dict[tuple[int, int], int] = _FRESH):
        self.name = name
        # bb -> instrs per execution
        self.instr_counts = {} if instr_counts is _FRESH else instr_counts
        self.edge_counts = {} if edge_counts is _FRESH else edge_counts

    def _exec_counts(self) -> dict[int, int]:
        """Block -> executions: the larger of its in and out traversals."""
        ins, outs = {}, {}
        for (s, d), c in self.edge_counts.items():
            outs[s] = outs.get(s, 0) + c
            ins[d] = ins.get(d, 0) + c
        for bb, c in outs.items():
            if c > ins.get(bb, 0):
                ins[bb] = c
        return ins

    def exec_count(self, bb: int) -> int:
        return self._exec_counts().get(bb, 0)

    def total_instructions(self) -> int:
        return sum(n * self.instr_counts.get(bb, 1) for bb, n in self._exec_counts().items())


def ingest(lines) -> dict[str, RoutineGraph]:
    """Build per-routine graphs from a streaming or aggregated trace.

    Streaming lines: ``routine,bb[,instr_count]`` in execution order.
    Aggregated files start with ``#aggregated`` and hold
    ``routine,src,dst,edge_count`` lines plus ``#bb routine,bb,instr_count``
    declarations.  The two forms of one execution yield identical graphs.

    A streaming trace repeats a few distinct lines many times, so the work
    per repeated line is kept small.  Each (routine, block) pair gets a
    small int code the first time it is seen, shared by every padding of
    its lines, and its routine gets a slot.  Each raw data line is parsed
    once: its ``(code, slot, instr)`` is kept in a dict of at most
    ``_LINE_CACHE_MAX`` lines (later new lines take the full parse).
    Entries are added only once the trace is known to be streaming, when
    no later line can change how a data line parses.  A line then records
    its instruction count against its code, swaps its code into its
    routine's slot and bumps one count in the pair table, keyed by
    (previous code, code): one row of counts per previous code.  The first
    time a pair is seen its edge goes into ``edge_counts`` with count 0,
    which keeps the edges in first-seen order.  After the last line each
    block's last instruction count goes into ``instr_counts``, in
    first-seen order, and every pair count is added to its edge.
    """
    graphs: dict[str, RoutineGraph] = {}
    aggregated = None
    # streaming state; code 0 stands for "no block yet" in its routine
    parsed: dict[str, tuple[int, int, int]] = {}  # raw line -> (code, slot, instr)
    codes: dict[tuple[str, int], tuple[int, int]] = {}  # (routine, bb) -> (code, slot)
    slots: dict[str, int] = {}  # routine -> slot
    blocks: list[tuple[RoutineGraph, int] | None] = [None]  # code -> (graph, bb)
    instrs: list[int] = [0]  # code -> instr count of its last line
    prev: list[int] = []  # slot -> code of its routine's last line
    pairs: list[dict[int, int]] = [{}]  # previous code -> {code: count}

    def graph(routine: str) -> RoutineGraph:
        g = graphs.get(routine)
        if g is None:
            g = graphs[routine] = RoutineGraph(routine)
        return g

    for lineno, raw in enumerate(lines, start=1):
        entry = parsed.get(raw)
        if entry is None:
            line = raw.strip()
            if not line:
                continue
            if line == "#aggregated":
                if aggregated is False:
                    raise TraceError("mixed streaming and aggregated formats", lineno)
                aggregated = True
                continue
            if line.startswith("#bb "):
                if aggregated is not True:
                    raise TraceError("#bb declaration outside an aggregated trace", lineno)
                parts = line[4:].split(",")
                if len(parts) != 3:
                    raise TraceError(f"malformed #bb line: '{line}'", lineno)
                routine, bb, instr = parts[0].strip(), parts[1], parts[2]
                g = graph(routine)
                try:
                    g.instr_counts[int(bb)] = int(instr)
                except ValueError:
                    raise TraceError(f"malformed #bb line: '{line}'", lineno)
                continue
            if line.startswith("#"):
                continue

            parts = [p.strip() for p in line.split(",")]
            if aggregated:
                if len(parts) != 4:
                    raise TraceError(f"malformed aggregated line: '{line}'", lineno)
                routine = parts[0]
                try:
                    src, dst, count = int(parts[1]), int(parts[2]), int(parts[3])
                except ValueError:
                    raise TraceError(f"malformed aggregated line: '{line}'", lineno)
                if count < 1:
                    raise TraceError(f"edge count must be >= 1: '{line}'", lineno)
                g = graph(routine)
                g.edge_counts[(src, dst)] = g.edge_counts.get((src, dst), 0) + count
                continue
            aggregated = False
            if len(parts) not in (2, 3):
                raise TraceError(f"malformed trace line: '{line}'", lineno)
            try:
                bb = int(parts[1])
                instr = int(parts[2]) if len(parts) == 3 else 1
            except ValueError:
                raise TraceError(f"malformed trace line: '{line}'", lineno)
            routine = parts[0]
            known = codes.get((routine, bb))
            if known is None:
                slot = slots.get(routine)
                if slot is None:
                    slot = slots[routine] = len(prev)
                    prev.append(0)
                known = codes[(routine, bb)] = (len(blocks), slot)
                blocks.append((graph(routine), bb))
                instrs.append(0)
                pairs.append({})
            entry = (*known, instr)
            if len(parsed) < _LINE_CACHE_MAX:
                parsed[raw] = entry

        code, slot, instr = entry
        instrs[code] = instr
        p = prev[slot]
        prev[slot] = code
        row = pairs[p]
        try:
            row[code] += 1
        except KeyError:
            if p:  # not the routine's first line
                row[code] = 1
                g, dst = blocks[code]
                g.edge_counts[(blocks[p][1], dst)] = 0

    for (g, src), instr, row in zip(blocks[1:], instrs[1:], pairs[1:]):
        g.instr_counts[src] = instr
        for code, n in row.items():
            g.edge_counts[(src, blocks[code][1])] += n
    return graphs


def ingest_file(path: str) -> dict[str, RoutineGraph]:
    with open(path, encoding="utf-8") as fh:
        return ingest(fh)


class LoopRoute(NamedTuple):
    blocks: tuple[int, ...]  # canonical rotation: smallest bb first
    iterations: int
    instructions_per_iteration: int


def _scc_ids(edge_counts: dict[tuple[int, int], int]) -> dict[int, int]:
    """Block -> id of its strongly connected component (iterative Tarjan)."""
    succ = defaultdict(list)
    for s, d in edge_counts:
        succ[s].append(d)
    index, low, comp, stack = {}, {}, {}, []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                i = index.get(w)
                if i is None:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ.get(w, ()))))
                    break
                if i < low[v] and w not in comp:  # not yet in a component: on the stack
                    low[v] = i
            else:
                work.pop()
                lv = low[v]
                if lv == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = v
                        if w == v:
                            break
                elif lv < low[work[-1][0]]:
                    low[work[-1][0]] = lv
    return comp


def enumerate_loops(g: RoutineGraph, max_len: int = DEFAULT_MAX_LEN,
                    max_routes: int = DEFAULT_MAX_ROUTES) -> tuple[list[LoopRoute], bool]:
    """Simple cycles of at most max_len blocks, ordered by descending
    iteration count then block sequence, cut to the first max_routes;
    returns (routes, truncated).  A negative max_len gives no routes; a
    negative max_routes raises ``ValueError``.

    Edges that join two strongly connected components close no cycle and
    are dropped.  The rest are added to a growing graph in descending count
    order.  An added edge u->v closes exactly the cycles made of it and a
    simple path v->...->u over the edges added before it (a self-loop closes
    ``(u,)``), so each cycle is found once, at its bottleneck edge, whose
    count is its iteration count.  The search stops after the first count
    level at which more than max_routes cycles have been found: every cycle
    not yet found iterates less, and the whole tied level is in hand, so
    the kept routes and the ``truncated`` flag are exact.  Only the routes
    kept get a ``LoopRoute`` and an instruction sum."""
    if max_routes < 0:
        raise ValueError(f"max_routes must be >= 0, got {max_routes}")
    comp = _scc_ids(g.edge_counts)
    edges = sorted(((c, s, d) for (s, d), c in g.edge_counts.items() if comp[s] == comp[d]),
                   reverse=True)
    succ = defaultdict(list)  # the edges added so far, self-loops left out
    found = []
    level = None
    for c, u, v in edges:
        if c != level:
            if len(found) > max_routes:
                break
            level = c
        if u == v:
            if max_len >= 1:
                found.append((-c, (u,)))
            continue
        if max_len >= 2:
            # every simple path v->...->u of at most max_len - 1 blocks
            path, stack = [v], [iter(succ[v])]
            while stack:
                for w in stack[-1]:
                    if w == u:
                        cyc = (u, *path)
                        i = cyc.index(min(cyc))
                        found.append((-c, cyc[i:] + cyc[:i]))
                    elif len(path) + 1 < max_len and w not in path:
                        path.append(w)
                        stack.append(iter(succ[w]))
                        break
                else:
                    stack.pop()
                    path.pop()
        succ[u].append(v)
    found.sort()
    instrs = g.instr_counts
    routes = [LoopRoute(seq, -neg, sum(instrs.get(bb, 1) for bb in seq))
              for neg, seq in found[:max_routes]]
    return routes, len(found) > max_routes


class RoutineStats(_Record):
    _fields = ("name", "total_instructions", "prevalence", "loop_fraction", "routes",
               "truncated", "filtered")

    def __init__(self, name: str, total_instructions: int, prevalence: float,
                 loop_fraction: float, routes: list[LoopRoute], truncated: bool,
                 filtered: bool):
        self.name = name
        self.total_instructions = total_instructions
        self.prevalence = prevalence  # fraction of whole-benchmark instructions
        self.loop_fraction = loop_fraction  # fraction of routine time spent inside loop routes
        self.routes = routes
        self.truncated = truncated
        self.filtered = filtered  # excluded from the aggregate by the prevalence cutoff


class BenchmarkStats(_Record):
    _fields = ("routines", "total_instructions", "loop_fraction")

    def __init__(self, routines: list[RoutineStats], total_instructions: int,
                 loop_fraction: float):
        self.routines = routines
        self.total_instructions = total_instructions
        self.loop_fraction = loop_fraction  # aggregate over routines above the cutoff

    def to_json(self) -> dict:
        return {
            "total_instructions": self.total_instructions,
            "loop_fraction": self.loop_fraction,
            "routines": [
                {
                    "name": r.name,
                    "instructions": r.total_instructions,
                    "prevalence": r.prevalence,
                    "loop_fraction": r.loop_fraction,
                    "filtered": r.filtered,
                    "truncated": r.truncated,
                    "routes": [
                        {
                            "blocks": list(rt.blocks),
                            "iterations": rt.iterations,
                            "instructions_per_iteration": rt.instructions_per_iteration,
                        }
                        for rt in r.routes
                    ],
                }
                for r in self.routines
            ],
        }


def prevalence_report(graphs: dict[str, RoutineGraph],
                      min_routine_fraction: float = MIN_ROUTINE_FRACTION,
                      max_len: int = DEFAULT_MAX_LEN,
                      max_routes: int = DEFAULT_MAX_ROUTES) -> BenchmarkStats:
    """Per-routine loop-time fractions plus the benchmark-level aggregate
    over routines above the run-time cutoff (default 1%)."""
    if not 0 <= min_routine_fraction <= 1:  # also refuses NaN
        raise ValueError(f"min_routine_fraction must be in [0, 1], got {min_routine_fraction}")
    times = {name: g.total_instructions() for name, g in graphs.items()}
    total = sum(times.values())
    routines = []
    agg_time = 0
    agg_loop = 0
    for name in sorted(graphs):
        g = graphs[name]
        routine_time = times[name]
        routes, truncated = enumerate_loops(g, max_len, max_routes)
        loop_time = sum(r.iterations * r.instructions_per_iteration for r in routes)
        loop_time = min(loop_time, routine_time)  # shared edges can over-count
        prevalence = routine_time / total if total else 0.0
        filtered = prevalence < min_routine_fraction
        routines.append(
            RoutineStats(
                name=name,
                total_instructions=routine_time,
                prevalence=prevalence,
                loop_fraction=loop_time / routine_time if routine_time else 0.0,
                routes=routes,
                truncated=truncated,
                filtered=filtered,
            )
        )
        if not filtered:
            agg_time += routine_time
            agg_loop += loop_time
    return BenchmarkStats(
        routines=routines,
        total_instructions=total,
        loop_fraction=agg_loop / agg_time if agg_time else 0.0,
    )


def coverage(iteration_counts, p: float) -> tuple[int, float]:
    """Smallest k such that the k most-iterated routes cover fraction p of
    all iterations; returns (k, k / number of routes)."""
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    counts = sorted(iteration_counts, reverse=True)
    if not counts:
        return 0, 0.0
    total = sum(counts)
    acc = 0
    for k, c in enumerate(counts, start=1):
        acc += c
        if acc >= p * total:
            return k, k / len(counts)
    return len(counts), 1.0


def coverage_of_routes(routes: list[LoopRoute], p: float) -> tuple[int, float]:
    return coverage([r.iterations for r in routes], p)
