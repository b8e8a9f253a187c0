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
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

DEFAULT_MAX_LEN = 32
DEFAULT_MAX_ROUTES = 4096
MIN_ROUTINE_FRACTION = 0.01


class TraceError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message + (f" (line {line})" if line else ""))


@dataclass
class RoutineGraph:
    name: str
    instr_counts: dict[int, int] = field(default_factory=dict)  # bb -> instrs per execution
    edge_counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def _exec_counts(self) -> Counter:
        """Block -> executions: the larger of its in and out traversals (Counter union)."""
        ins, outs = Counter(), Counter()
        for (s, d), c in self.edge_counts.items():
            outs[s] += c
            ins[d] += c
        return ins | outs

    def exec_count(self, bb: int) -> int:
        return self._exec_counts()[bb]

    def total_instructions(self) -> int:
        return sum(n * self.instr_counts.get(bb, 1) for bb, n in self._exec_counts().items())


def ingest(lines) -> dict[str, RoutineGraph]:
    """Build per-routine graphs from a streaming or aggregated trace.

    Streaming lines: ``routine,bb[,instr_count]`` in execution order.
    Aggregated files start with ``#aggregated`` and hold
    ``routine,src,dst,edge_count`` lines plus ``#bb routine,bb,instr_count``
    declarations.  The two forms of one execution yield identical graphs.
    """
    graphs: dict[str, RoutineGraph] = {}
    prev_bb: dict[str, int] = {}
    aggregated = None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").strip()
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
            g = graphs.setdefault(routine, RoutineGraph(routine))
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
            g = graphs.setdefault(routine, RoutineGraph(routine))
            g.edge_counts[(src, dst)] = g.edge_counts.get((src, dst), 0) + count
        else:
            if aggregated is None:
                aggregated = False
            if len(parts) not in (2, 3):
                raise TraceError(f"malformed trace line: '{line}'", lineno)
            routine = parts[0]
            try:
                bb = int(parts[1])
                instr = int(parts[2]) if len(parts) == 3 else 1
            except ValueError:
                raise TraceError(f"malformed trace line: '{line}'", lineno)
            g = graphs.setdefault(routine, RoutineGraph(routine))
            g.instr_counts[bb] = instr
            if routine in prev_bb:
                key = (prev_bb[routine], bb)
                g.edge_counts[key] = g.edge_counts.get(key, 0) + 1
            prev_bb[routine] = bb

    return graphs


def ingest_file(path: str) -> dict[str, RoutineGraph]:
    with open(path, encoding="utf-8") as fh:
        return ingest(fh)


@dataclass(frozen=True)
class LoopRoute:
    blocks: tuple[int, ...]  # canonical rotation: smallest bb first
    iterations: int
    instructions_per_iteration: int


def _circuits(edges, max_len: int):
    """Simple cycles of at most max_len blocks.  Each is rooted at its
    smallest block and extended only through larger ones, so it is found
    once and already in canonical rotation; a block is entered only if its
    hop distance back to the root still fits in the bound."""
    succ, pred = defaultdict(list), defaultdict(list)
    for s, d in edges:
        succ[s].append(d)
        pred[d].append(s)
    for root in sorted(succ):
        dist = {root: 0}  # reverse BFS over the blocks larger than root
        queue = [root]
        for v in queue:
            for p in pred[v]:
                if p > root and p not in dist:
                    dist[p] = dist[v] + 1
                    queue.append(p)
        path, stack = [root], [iter(succ[root])]
        while stack:
            for nxt in stack[-1]:
                if nxt == root and len(path) <= max_len:
                    yield tuple(path)
                elif nxt in dist and nxt not in path and len(path) + dist[nxt] <= max_len:
                    path.append(nxt)
                    stack.append(iter(succ[nxt]))
                    break
            else:
                stack.pop()
                path.pop()


def enumerate_loops(g: RoutineGraph, max_len: int = DEFAULT_MAX_LEN,
                    max_routes: int = DEFAULT_MAX_ROUTES) -> tuple[list[LoopRoute], bool]:
    """All simple cycles up to max_len blocks, ordered by descending
    iteration count then block sequence; returns (routes, truncated)."""
    routes = []
    for seq in _circuits(g.edge_counts, max_len):
        closed = list(zip(seq, seq[1:] + seq[:1]))
        iters = min(g.edge_counts[e] for e in closed)
        instrs = sum(g.instr_counts.get(bb, 1) for bb in seq)
        routes.append(LoopRoute(seq, iters, instrs))
    routes.sort(key=lambda r: (-r.iterations, r.blocks))
    truncated = len(routes) > max_routes
    return routes[:max_routes], truncated


@dataclass
class RoutineStats:
    name: str
    total_instructions: int
    prevalence: float  # fraction of whole-benchmark instructions
    loop_fraction: float  # fraction of routine time spent inside loop routes
    routes: list[LoopRoute]
    truncated: bool
    filtered: bool  # excluded from the aggregate by the prevalence cutoff


@dataclass
class BenchmarkStats:
    routines: list[RoutineStats]
    total_instructions: int
    loop_fraction: float  # aggregate over routines above the cutoff

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
