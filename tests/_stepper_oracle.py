"""The cycle-by-cycle stepper the event-driven kernel in ``loopgrid.sim``
replaced, kept as a differential oracle.  Its only edit since is an
in-order rule: a carried token waits until its slot's live-in seeds are all
in, and a unit fires thread ``fires`` once every slot holds it.  The kernel
shares the second half only: there every seed arrives at the start of cycle
2, ahead of any carried token, so nothing waits.  Here the seeds are still
injected up to the buffer depth.  Its ``Token`` and ``ildr_retag``, which
the kernel no longer needs, live here.

Every call to ``SimState.step`` advances exactly one global cycle and walks
every unit twice (emission, then firing), so it is slow but has no wake-up
or skip logic that could be wrong.  ``tests/test_sim_kernel.py`` checks that
the kernel's reports, text traces and deadlock cycles equal this one's.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from loopgrid.grid import GridConfig
from loopgrid.ir import DataflowGraph, eval_op
from loopgrid.sim import (
    DeadlockError,
    MachineParams,
    SimInvariantError,
    SimReport,
    unit_latency,
)


class Token(NamedTuple):
    thread_id: int
    value: object


def ildr_retag(token: Token, diff: int) -> Token:
    """Bump a token's thread id by the iteration distance; value unchanged.
    Callers drop (and count) results whose new id falls outside the group."""
    return Token(token.thread_id + diff, token.value)


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

        # per producer: list of (consumer, slot, diff, extra delay); each back
        # edge has one carrier, dr's feedback where the mapping attached one,
        # else the spill
        self.carriers: dict[int, list[tuple[int, int, int, int]]] = {}
        feedback = {f.edge_key: f for f in config.feedback} if params.mode == "dr" else {}
        for e in dfg.back_edges():
            att = feedback.get(e.key())
            delay = (att.feedback_latency if att
                     else config.reinjection_latency(e.dst) + params.spill_latency)
            self.carriers.setdefault(e.src, []).append((e.dst, e.slot, e.diff, delay))

        self.out_links: dict[int, list[tuple[int, int, int]]] = {nd.id: [] for nd in dfg.nodes}
        for e in dfg.intra_edges():
            self.out_links[e.src].append((e.dst, e.slot, config.routes[e.key()].latency))

        # live-in injectors: (node, slot, livein, next tid, tid limit, held
        # carried tokens); on a dependent slot only threads below diff take a
        # live-in value
        dep_diff = {(e.dst, e.slot): e.diff for e in dfg.back_edges()}
        self.injectors = []
        for lv in dfg.live_in.values():
            limit = min(dep_diff.get((lv.node, lv.slot), params.n_threads), params.n_threads)
            self.injectors.append([lv.node, lv.slot, lv, 0, limit, {}])

        self.memory = dict(dfg.memory_image)
        self.mem_outstanding = 0
        self.arrivals: dict[int, list] = {}
        self.completions: dict[int, list] = {}
        self.cycle = 0
        self.dropped_retags = 0
        self.liveout_vals: dict[int, dict[int, object]] = {n: {} for n in dfg.live_out}

        # unit whose issue cadence defines the measured initiation interval
        if params.mode == "dr" and config.feedback:
            self.primary = config.feedback[0].consumer
        elif dfg.back_edges():
            self.primary = dfg.back_edges()[0].dst
        else:
            self.primary = dfg.live_out[0] if dfg.live_out else 0
        self.primary_issues: list[int] = []  # cycles at which the primary unit fired

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

    def _put(self, nid: int, slot: int, tid: int, value):
        unit = self.units[nid]
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
            progress = True
            if source == "route":
                self.units[nid].reserved[slot] -= 1
            held = next((inj[5] for inj in self.injectors
                         if inj[:2] == [nid, slot] and inj[3] < inj[4]), None)
            if source == "carry" and held is not None:
                held[tid] = value  # until the slot's live-in seeds are all in
                continue
            self._put(nid, slot, tid, value)

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
        for nid, unit in self.units.items():
            if not unit.out_queue:
                continue
            tid, value = unit.out_queue[0]
            links = self.out_links[nid]
            if all(self._room(self.units[d], s) for d, s, _lat in links):
                unit.out_queue.popleft()
                progress = True
                for dst, slot, lat in links:
                    if lat == 0:
                        self._put(dst, slot, tid, value)
                    else:
                        self.units[dst].reserved[slot] += 1
                        self.arrivals.setdefault(c + lat, []).append(
                            (dst, slot, tid, value, "route"))

        # 4. firing: thread ``fires`` next; a unit with buffered tokens stalls
        #    while it holds an unemitted result, while some slot lacks that
        #    thread, or while loads are at the outstanding cap
        mem_cap = self.params.mem_max_outstanding
        for nid, unit in self.units.items():
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
            tid = unit.fires
            common = not unit.out_queue and all(tid in b for b in unit.buffers)
            if not common or (nd.kind == "load" and mem_cap is not None
                              and self.mem_outstanding >= mem_cap):
                unit.stalls += 1
                self._emit_trace("stall", nid, -1, 0)
                continue
            ins = [unit.buffers[s].pop(tid) for s in range(unit.arity)]
            b = ins[1] if unit.arity == 2 else None
            value = eval_op(nd.kind, ins[0], b, self.memory)
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
            nid, slot, lv, next_tid, limit, held = inj
            unit = self.units[nid]
            while next_tid < limit and self._room(unit, slot):
                self._put(nid, slot, next_tid, lv.value_for(next_tid))
                next_tid += 1
                progress = True
                if next_tid == limit:  # seeding done: the held tokens go in
                    for t, value in held.items():
                        self._put(nid, slot, t, value)
            inj[3] = next_tid

        if not (progress or self.arrivals or self.completions or self.done()):
            pending = {n: len(v) for n, v in self.liveout_vals.items()}
            raise DeadlockError(c, f"live-out progress stuck at {pending}")

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
            live_columns={nid: [row[nid] for row in live] for nid in self.dfg.live_out},
            measured_ii=ii,
        )


def simulate(config: GridConfig, dfg: DataflowGraph, params: MachineParams,
             trace=None) -> SimReport:
    """Run until every live-out value of every thread has been produced."""
    state = SimState(config, dfg, params, trace=trace)
    while not state.done():
        state.step()
    return state.report()
