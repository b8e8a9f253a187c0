"""Deterministic cycle-level simulation of a mapped loop graph.

Execution follows the tagged-token discipline: every value travels as a
(thread id, value) token, a unit fires as soon as all of its input slots
hold tokens with one common thread id (smallest id first), and results flow
along the static routes.  Loop-carried values cross iterations in one of
two ways depending on the mode:

* ``dr``   -- the producing unit's result is retagged (+diff) one cycle
  after completion and written straight into the consumer's dependent
  input slot (via the end-of-route update detour when producer and
  consumer differ).
* ``baseline`` -- the value is spilled out of the grid and re-injected at
  the consumer: the token pays a flat spill latency plus the hop distance
  from the grid port to the consumer cell, and the consuming thread stalls
  until it arrives.

Within one cycle all reads happen against start-of-cycle state, so the
outcome is independent of unit iteration order.  A single simulation is
strictly single-threaded; distinct simulations share no state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .analysis import LoopPattern, classify, find_deps
from .grid import GridConfig, GridSpec
from .ir import DataflowGraph, Node, eval_op


class Token(NamedTuple):
    thread_id: int
    value: object


def ildr_retag(token: Token, diff: int) -> Token:
    """Bump a token's thread id by the iteration distance; value unchanged.
    Callers drop (and count) results whose new id falls outside the group."""
    return Token(token.thread_id + diff, token.value)


@dataclass
class MachineParams:
    mode: str = "dr"  # "baseline" | "dr"
    n_threads: int = 1
    mem_latency: int = 20
    mem_max_outstanding: int | None = None  # None = unlimited
    spill_latency: int = 8

    def __post_init__(self):
        if self.mode not in ("baseline", "dr"):
            raise ValueError(f"unknown mode '{self.mode}'")
        if self.n_threads < 1 or self.mem_latency < 1 or self.spill_latency < 0:
            raise ValueError("bad machine parameters")
        if self.mem_max_outstanding is not None and self.mem_max_outstanding < 1:
            raise ValueError("mem_max_outstanding must be None or at least 1")


def unit_latency(nd: Node, spec: GridSpec, params: MachineParams) -> int:
    """Cycles from a unit firing to its result: loads pay the memory latency."""
    return params.mem_latency if nd.kind == "load" else spec.latencies[nd.latency_class]


@dataclass
class SimReport:
    mode: str
    n_threads: int
    total_cycles: int
    fires: dict[int, int]
    stalls: dict[int, int]
    dropped_retags: int
    selector_drops: int
    live_out: list[dict[int, object]]
    measured_ii: float | None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n_threads": self.n_threads,
            "total_cycles": self.total_cycles,
            "fires": {str(k): v for k, v in sorted(self.fires.items())},
            "stalls": {str(k): v for k, v in sorted(self.stalls.items())},
            "dropped_retags": self.dropped_retags,
            "selector_drops": self.selector_drops,
            "measured_ii": self.measured_ii,
            "live_out": [
                {str(k): v for k, v in sorted(row.items())} for row in self.live_out
            ],
        }


class DeadlockError(Exception):
    def __init__(self, cycle: int, detail: str):
        self.cycle = cycle
        super().__init__(f"deadlock at cycle {cycle}: {detail}")


class SimInvariantError(AssertionError):
    pass


class _Unit:
    __slots__ = ("node", "cell", "latency", "arity", "buffers", "reserved",
                 "out_queue", "next_tid", "fires", "stalls")

    def __init__(self, node, cell, latency):
        self.node = node
        self.cell = cell
        self.latency = latency
        self.arity = node.n_inputs
        self.buffers = [dict() for _ in range(self.arity)]
        self.reserved = [0] * max(self.arity, 1)
        self.out_queue = deque()
        self.next_tid = 0  # const issue counter
        self.fires = 0
        self.stalls = 0


class SimState:
    """One in-flight simulation; ``step`` advances a single global cycle."""

    def __init__(self, config: GridConfig, dfg: DataflowGraph, params: MachineParams,
                 trace=None):
        self.config = config
        self.dfg = dfg
        self.params = params
        self.trace = trace

        self.units: dict[int, _Unit] = {}
        for nd in dfg.nodes:
            self.units[nd.id] = _Unit(nd, config.placement[nd.id],
                                      unit_latency(nd, config.spec, params))

        # per producer: list of (consumer, slot, diff, extra delay)
        self.carriers: dict[int, list[tuple[int, int, int, int]]] = {}
        spilled = {e.key() for e in dfg.back_edges()}
        if params.mode == "dr":
            for att in config.feedback:
                self.carriers.setdefault(att.producer, []).append(
                    (att.consumer, att.consumer_slot, att.diff, att.feedback_latency))
            spilled = set(config.baseline_only)
        for e in dfg.back_edges():
            if e.key() in spilled:
                delay = config.reinjection_latency(e.dst) + params.spill_latency
                self.carriers.setdefault(e.src, []).append((e.dst, e.slot, e.diff, delay))

        self.dep_slots = {(e.dst, e.slot): e.diff for e in dfg.back_edges()}
        self.out_links: dict[int, list[tuple[int, int, int]]] = {nd.id: [] for nd in dfg.nodes}
        for e in dfg.intra_edges():
            self.out_links[e.src].append((e.dst, e.slot, config.routes[e.key()].latency))

        # live-in injectors: (node, slot, livein, next tid, tid limit)
        self.injectors = []
        for lv in dfg.live_in.values():
            limit = self.dep_slots.get((lv.node, lv.slot), None)
            limit = params.n_threads if limit is None else min(limit, params.n_threads)
            self.injectors.append([lv.node, lv.slot, lv, 0, limit])

        self.memory = dict(dfg.memory_image)
        self.mem_outstanding = 0
        self.arrivals: dict[int, list] = {}
        self.completions: dict[int, list] = {}
        self.cycle = 0
        self.dropped_retags = 0
        self.selector_drops = 0
        self.liveout_vals: dict[int, dict[int, object]] = {n: {} for n in dfg.live_out}

        # unit whose issue cadence defines the measured initiation interval
        if params.mode == "dr" and config.feedback:
            self.primary = config.feedback[0].consumer
        elif dfg.back_edges():
            self.primary = dfg.back_edges()[0].dst
        else:
            self.primary = dfg.live_out[0] if dfg.live_out else 0
        self.primary_issues: list[int] = []  # cycles at which the primary unit fired

        routes_max = max((r.latency for r in config.routes.values()), default=0)
        lat_max = max(u.latency for u in self.units.values())
        reinj = max((config.reinjection_latency(n) for n in self.units), default=0)
        extra = max((a.feedback_latency for a in config.feedback), default=0)
        self.idle_limit = lat_max + routes_max + params.spill_latency + reinj + extra + 4
        self.idle = 0

    # -- helpers -----------------------------------------------------------

    def _emit_trace(self, event, unit, tid, value):
        if self.trace is not None:
            cell = self.units[unit].cell
            self.trace.write(
                f"cycle={self.cycle} unit={cell[0]},{cell[1]} event={event} "
                f"thread={tid} value={value}\n"
            )

    def _room(self, unit: _Unit, slot: int) -> bool:
        return len(unit.buffers[slot]) + unit.reserved[slot] < self.config.spec.token_buffer_depth

    def _put(self, nid: int, slot: int, tid: int, value, source: str):
        unit = self.units[nid]
        if source == "livein" and self.params.mode == "dr":
            diff = self.dep_slots.get((nid, slot))
            if diff is not None and tid >= diff:
                self.selector_drops += 1
                self._emit_trace("drop", nid, tid, value)
                return
        if tid in unit.buffers[slot]:
            raise SimInvariantError(
                f"duplicate token (node {nid}, slot {slot}, thread {tid})")
        unit.buffers[slot][tid] = value

    def done(self) -> bool:
        n = self.params.n_threads
        return all(len(v) == n for v in self.liveout_vals.values())

    # -- one global cycle --------------------------------------------------

    def step(self):
        self.cycle += 1
        c = self.cycle
        progress = False

        # 1. tokens arriving this cycle enter their buffers
        for nid, slot, tid, value, source in self.arrivals.pop(c, ()):
            if source == "route":
                self.units[nid].reserved[slot] -= 1
            self._put(nid, slot, tid, value, source)
            progress = True

        # 2. completions: results become emittable; loop-carried copies are
        #    retagged and scheduled (feedback or spill re-injection)
        for nid, tid, value in self.completions.pop(c, ()):
            unit = self.units[nid]
            progress = True
            if unit.node.kind == "load":
                self.mem_outstanding -= 1
            self._emit_trace("complete", nid, tid, value)
            if nid in self.liveout_vals:
                self.liveout_vals[nid][tid] = value
            if unit.node.kind != "sink":
                unit.out_queue.append((tid, value))
            for consumer, slot, diff, delay in self.carriers.get(nid, ()):
                new = ildr_retag(Token(tid, value), diff)
                if new.thread_id >= self.params.n_threads:
                    self.dropped_retags += 1
                    self._emit_trace("drop", nid, new.thread_id, value)
                else:
                    self._emit_trace("retag", nid, new.thread_id, value)
                    self.arrivals.setdefault(c + max(delay, 1), []).append(
                        (consumer, slot, new.thread_id, new.value, "carry"))

        # 3. emission: one held result per unit per cycle, all fan-out
        #    destinations must have room (back-pressure)
        for nid in sorted(self.units):
            unit = self.units[nid]
            if not unit.out_queue:
                continue
            tid, value = unit.out_queue[0]
            links = self.out_links[nid]
            if all(self._room(self.units[d], s) for d, s, _lat in links):
                unit.out_queue.popleft()
                progress = True
                for dst, slot, lat in links:
                    if lat == 0:
                        self._put(dst, slot, tid, value, "route")
                    else:
                        self.units[dst].reserved[slot] += 1
                        self.arrivals.setdefault(c + lat, []).append(
                            (dst, slot, tid, value, "route"))

        # 4. firing: lowest matching thread id first; a unit holding an
        #    unemitted result stalls its pipeline
        for nid in sorted(self.units):
            unit = self.units[nid]
            nd = unit.node
            if nd.kind == "const":
                if unit.next_tid < self.params.n_threads and not unit.out_queue:
                    tid = unit.next_tid
                    unit.next_tid += 1
                    unit.fires += 1
                    progress = True
                    self._emit_trace("fire", nid, tid, nd.value)
                    self.completions.setdefault(c + unit.latency, []).append(
                        (nid, tid, nd.value))
                continue
            if not any(unit.buffers):
                continue
            occupied = any(unit.buffers[s] for s in range(unit.arity))
            if unit.out_queue:
                if occupied:
                    unit.stalls += 1
                    self._emit_trace("stall", nid, -1, 0)
                continue
            common = set(unit.buffers[0])
            for s in range(1, unit.arity):
                common &= set(unit.buffers[s])
            if not common:
                if occupied:
                    unit.stalls += 1
                    self._emit_trace("stall", nid, -1, 0)
                continue
            if nd.kind == "load" and self.params.mem_max_outstanding is not None \
                    and self.mem_outstanding >= self.params.mem_max_outstanding:
                unit.stalls += 1
                self._emit_trace("stall", nid, -1, 0)
                continue
            tid = min(common)
            ins = [unit.buffers[s].pop(tid) for s in range(unit.arity)]
            a = ins[0] if ins else None
            b = ins[1] if len(ins) > 1 else None
            value = eval_op(nd.kind, a, b, self.memory)
            if nd.kind == "load":
                self.mem_outstanding += 1
            unit.fires += 1
            progress = True
            if nid == self.primary:
                self.primary_issues.append(c)
            self._emit_trace("fire", nid, tid, value)
            self.completions.setdefault(c + unit.latency, []).append((nid, tid, value))

        # 5. live-in injection, in thread order, while there is room
        for inj in self.injectors:
            nid, slot, lv, next_tid, limit = inj
            unit = self.units[nid]
            while next_tid < limit and self._room(unit, slot):
                self._put(nid, slot, next_tid, lv.value_for(next_tid), "livein")
                next_tid += 1
                progress = True
            inj[3] = next_tid

        if progress or self.arrivals or self.completions:
            self.idle = 0
        else:
            self.idle += 1
            if self.idle > self.idle_limit and not self.done():
                pending = {n: len(v) for n, v in self.liveout_vals.items()}
                raise DeadlockError(self.cycle, f"live-out progress stuck at {pending}")

    def report(self) -> SimReport:
        n = self.params.n_threads
        live = [
            {nid: self.liveout_vals[nid][t] for nid in self.dfg.live_out}
            for t in range(n)
        ]
        issues = self.primary_issues
        ii = None
        if len(issues) >= 3:
            mid = len(issues) // 2
            ii = (issues[-1] - issues[mid]) / (len(issues) - 1 - mid)
        return SimReport(
            mode=self.params.mode,
            n_threads=n,
            total_cycles=self.cycle,
            fires={nid: u.fires for nid, u in self.units.items()},
            stalls={nid: u.stalls for nid, u in self.units.items()},
            dropped_retags=self.dropped_retags,
            selector_drops=self.selector_drops,
            live_out=live,
            measured_ii=ii,
        )


def simulate(config: GridConfig, dfg: DataflowGraph, params: MachineParams,
             trace=None) -> SimReport:
    """Run until every live-out value of every thread has been produced."""
    state = SimState(config, dfg, params, trace=trace)
    while not state.done():
        state.step()
    return state.report()


class IIOracleError(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


def steady_state_ii(config: GridConfig, dfg: DataflowGraph, params: MachineParams) -> int:
    """Closed-form steady-state initiation interval; cross-check oracle.

    Only defined for a single realized dependency whose pattern is
    single-path or diverging-after.  dr: dependent-path compute and route
    cycles plus the feedback write.  baseline: the same path cost plus the
    spill round trip (flat spill latency + port-to-consumer re-entry hops).
    """
    deps = find_deps(dfg, config.spec.latencies)
    if len(deps) != 1:
        raise IIOracleError("unsupported-pattern", f"{len(deps)} dependencies, need exactly 1")
    dep = deps[0]
    pattern, _mem = classify(dfg, dep, deps)
    if pattern not in (LoopPattern.SINGLE_PATH, LoopPattern.DIVERGING_AFTER):
        raise IIOracleError("unsupported-pattern", f"pattern {pattern.value} not supported")

    path = dep.dependent_path
    lat = sum(unit_latency(dfg.node(nid), config.spec, params) for nid in path)
    for a, b in zip(path, path[1:]):
        edge = next(e for e in dfg.intra_edges() if e.src == a and e.dst == b)
        lat += config.routes[edge.key()].latency

    if params.mode == "dr":
        att = next((f for f in config.feedback if f.edge_key == dep.back_edge.key()), None)
        if att is None:
            raise IIOracleError("unsupported-pattern", "dependency has no in-grid feedback")
        return lat + att.feedback_latency
    return lat + config.reinjection_latency(dep.consumer) + params.spill_latency
