"""Deterministic cycle-level simulation of a mapped loop graph.

Execution follows the tagged-token discipline: every value travels as a
(thread id, value) token, a unit fires its threads in order, each as soon as
all of its input slots hold that thread's token, and results flow along the
static routes.  Loop-carried values cross iterations in one of
two ways depending on the mode:

* ``dr``   -- the producing unit's result is retagged (+diff) one cycle
  after completion and written straight into the consumer's dependent
  input slot (via the end-of-route update detour when producer and
  consumer differ).
* ``baseline`` -- the value is spilled out of the grid and re-injected at
  the consumer: the token pays a flat spill latency plus the hop distance
  from the grid port to the consumer cell, and the consuming thread stalls
  until it arrives.

A dependent slot's live-in injector stops at ``diff`` (its selector serves
later threads the carried value), so ``selector_drops`` is always 0.  Like
the selector, the slot serves its seeds first: a carried token that arrives
while seeds are still to be injected is held back, and the held tokens enter
in thread order once the last seed is in.  So every slot receives its
threads in order, and a unit's next thread is always its fire count.

Each cycle runs five phases in order: arrivals enter buffers, completions
queue results and schedule carried copies, units emit held results (node
order), units fire (node order), live-ins are injected.  A token routed
with zero latency lands during emission and can fire the same cycle.  Node
order matters in two places: an emission can fill the slot a later unit's
emission needed, and under ``mem_max_outstanding`` a load that fires takes
a slot a higher-numbered load in the same cycle then lacks.

The kernel is event-driven but reproduces the cycle-by-cycle outcome
exactly.  A unit's firing outcome depends only on its buffers, its held
results and, for loads, ``mem_outstanding``, so the firing phase visits only
units whose buffers or held results changed or that fired last cycle, and
under the cap every load once a load completes (a rising count cannot
unblock one); any other unit would repeat its last outcome.  A blocked
emitter is retried only after one of its destinations fires (nothing else
frees room), and a live-in injector only after its unit fires.  When nothing
is left to visit, the kernel jumps to the next pending arrival or
completion.  A stalling unit records the cycle its stall run began and is
credited the run's length when it next fires or when the report is built.
A traced run visits every unit on every cycle and never jumps: an unwoken
unit repeats its last outcome, so the visit changes no state and only writes
the stall line of a unit still stalling.  That is the schedule of the plain
cycle-by-cycle stepper in ``tests/_stepper_oracle.py``.  A cycle with no
progress and nothing in flight before every live-out exists raises
DeadlockError at once: no state changed, so every later cycle would repeat
it.

Every loop iteration is its own thread, so a unit's fire count says where
it stands in thread space, and a run in steady state repeats its state
exactly up to a shift of thread ids.  An untraced run of at least
``FAST_FORWARD_MIN_THREADS`` threads watches for that repeat with Brent's
cycle detection for at most ``FAST_FORWARD_MAX_STEPS`` steps, comparing only
the steps at which a live-out value completed.  The signature counts every
thread id from a fire count: the ids a unit injects or completes from its
own, the ids in an arrival from the receiving unit's; a buffer or a held
result queue, always a run of consecutive ids, by its length.  It also holds
event times relative to the cycle, which units are mid-stall, the load count
and the units to visit next; it holds no token value.  A repeat after P
cycles moves each unit by k, its own fire-count change.  Every token in
flight repeats, so a producer moves as its consumer does, while units that
share no edge (loads under the memory cap among them) each keep their own k.
The kernel then skips m whole periods, m as large as keeps every const
issue, live-in and retag below its thread limit (so no retag is dropped in a
skipped period): fires, stalls, the cycle and the live-out count grow by m
times the period's change, and the primary unit's issue cycles are kept as
one run (position, the period's cycles, P, m).  This is exact because timing
never reads a value.  The values come from replaying the period's operator
fires, shifted, in fire order through each unit's ``ir.OPS`` op and the same
memory, so stores, loads and the first ExecError are those of a full run; a
const, which touches no memory and never raises, has its results filled by
slice.  Results sit in one list per unit by thread id, and a plain live-in
slot reads a column of its values filled once per run, so every operand of
thread t is row[t - diff]; that needs each unit that moves to have fired
past its back slots' diffs, and no period is skipped before.  The replay
runs in blocks of 64 periods; after each, one dict update per operator
live-out writes its values and a slice clears the ids nothing reads any more.
Detection then starts over, since a unit that stopped (a const done issuing)
can leave the rest to repeat for longer; the normal kernel finishes the
tail, deadlocks included.  A traced run never skips, so its trace lists
every cycle.  A single simulation is strictly single-threaded; distinct
simulations share no state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .analysis import LoopPattern, classify, find_deps
from .grid import GridConfig, GridSpec
from .ir import OPS, DataflowGraph, DfgError, Node


FAST_FORWARD_MIN_THREADS = 64  # untraced runs this long look for a periodic state
FAST_FORWARD_MAX_STEPS = 4096  # steps watched for a repeat before giving up


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
    selector_drops: int  # always 0: injectors stop at diff on a dependent slot
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
    """Raised at the first cycle with no progress and nothing in flight."""

    def __init__(self, cycle: int, detail: str):
        self.cycle = cycle
        super().__init__(f"deadlock at cycle {cycle}: {detail}")


class SimInvariantError(AssertionError):
    pass


class _Unit:
    __slots__ = ("index", "node", "cell", "latency", "arity", "op", "is_const", "is_load",
                 "emits", "buffers", "reserved", "out_queue", "links", "feeders",
                 "carriers", "injectors", "sources", "liveout", "fires", "stalls", "since")

    def __init__(self, index, node, cell, latency):
        self.index = index  # position in node order, which is firing order
        self.node = node
        self.cell = cell
        self.latency = latency
        self.arity = node.n_inputs
        self.op = OPS.get(node.kind)  # None on a const
        self.is_const = node.kind == "const"
        self.is_load = node.kind == "load"
        self.emits = node.kind != "sink"
        self.buffers = [dict() for _ in range(self.arity)]
        self.reserved = [0] * self.arity
        self.out_queue = deque()
        # other units appear by index only: no reference cycles, so a finished
        # simulation is freed at once instead of waiting for the cyclic GC
        self.links = []  # (destination, slot, route latency)
        self.feeders = []  # units with a route into this one
        self.carriers = []  # (consumer, slot, diff, delay >= 1)
        self.injectors = []  # live-in injectors on this unit still short of their limit
        # per slot: (producer index or None, diff (0 on an intra edge), livein or None)
        self.sources = [(None, 0, None)] * self.arity
        self.liveout = None  # thread id -> value, on a live-out unit
        self.fires = 0  # the unit fires thread ``fires`` next
        self.stalls = 0  # stall cycles credited so far
        self.since = None  # first cycle of the current uncredited stall run


class SimState:
    """One in-flight simulation; ``step`` runs the next cycle in which
    anything can happen (every cycle when traced), crediting the stalls of
    the quiet cycles it skips."""

    def __init__(self, config: GridConfig, dfg: DataflowGraph, params: MachineParams,
                 trace=None):
        self.config = config
        self.dfg = dfg
        self.params = params
        self.trace = trace

        # parse_dfg accepts any slot number; a token for a missing slot has no buffer
        nodes = {nd.id: nd for nd in dfg.nodes}
        feeds = [(e.dst, e.slot, f"{e.kind} edge {e.src}->{e.dst}") for e in dfg.edges]
        feeds += [(lv.node, lv.slot, f"livein '{lv.name}'") for lv in dfg.live_in.values()]
        for nid, slot, what in feeds:
            nd = nodes.get(nid)
            if nd is not None and not 0 <= slot < nd.n_inputs:
                raise DfgError("arity-mismatch",
                               f"{what}: node {nid} ({nd.kind}) has no slot {slot}")

        self.units = [_Unit(i, nd, config.placement[nd.id], unit_latency(nd, config.spec, params))
                      for i, nd in enumerate(dfg.nodes)]
        by_id = {u.node.id: u for u in self.units}

        spilled = {e.key() for e in dfg.back_edges()}
        if params.mode == "dr":
            for att in config.feedback:
                by_id[att.producer].carriers.append(
                    (by_id[att.consumer].index, att.consumer_slot, att.diff,
                     att.feedback_latency))
            spilled = set(config.baseline_only)
        for e in dfg.back_edges():
            if e.key() in spilled:
                delay = config.reinjection_latency(e.dst) + params.spill_latency
                by_id[e.src].carriers.append((by_id[e.dst].index, e.slot, e.diff, max(delay, 1)))

        for e in dfg.intra_edges():
            src, dst = by_id[e.src], by_id[e.dst]
            src.links.append((dst.index, e.slot, config.routes[e.key()].latency))
            if src.index not in dst.feeders:
                dst.feeders.append(src.index)

        # a slot takes one edge, plus a seeding livein on a back edge's slot
        for e in dfg.edges:
            u = by_id[e.dst]
            if u.sources[e.slot][0] is not None:
                raise DfgError("duplicate-slot", f"slot {e.slot} of node {e.dst} bound twice")
            u.sources[e.slot] = (by_id[e.src].index, e.diff if e.kind == "back" else 0, None)
        for lv in dfg.live_in.values():
            u = by_id[lv.node]
            p, d, seed = u.sources[lv.slot]
            if seed is not None or (p is not None and not d):
                raise DfgError("duplicate-slot", f"slot {lv.slot} of node {lv.node} bound twice")
            u.sources[lv.slot] = (p, d, lv)
        # an unseeded back edge starves its consumer's first threads: on a path
        # to a live-out the run deadlocks, off every such path it is refused
        # here, where the reference raises ExecError("missing-livein")
        live = {by_id[nid].index for nid in dfg.live_out if nid in by_id}
        stack = list(live)
        while stack:
            for f in self.units[stack.pop()].feeders:
                if f not in live:
                    live.add(f)
                    stack.append(f)
        for u in self.units:
            for slot, (p, d, lv) in enumerate(u.sources):
                # a unit with an unfed slot never fires; the reference refuses the graph
                if p is None and lv is None:
                    raise DfgError("unfed-slot", f"slot {slot} of node {u.node.id} "
                                   f"({u.node.kind}) has no input")
                if d and lv is None and u.index not in live:
                    raise DfgError("missing-livein", f"back edge into slot {slot} of node "
                                   f"{u.node.id} has no livein and feeds no live-out")

        # live-in injectors: [unit index, slot, livein, next tid, tid limit, held
        # carried tokens by thread id]; on a dependent slot only threads below
        # diff take a live-in value
        dep_diff = {(e.dst, e.slot): e.diff for e in dfg.back_edges()}
        self._inject = []
        for lv in dfg.live_in.values():
            if not lv.values:
                raise DfgError("livein-length", f"livein '{lv.name}' has no values")
            limit = min(dep_diff.get((lv.node, lv.slot), params.n_threads), params.n_threads)
            inj = [by_id[lv.node].index, lv.slot, lv, 0, limit, {}]
            by_id[lv.node].injectors.append(inj)
            self._inject.append(inj)

        self.memory = dict(dfg.memory_image)
        self.mem_outstanding = 0
        self.arrivals: dict[int, list] = {}
        self.completions: dict[int, list] = {}
        self.cycle = 0
        self.dropped_retags = 0
        self.liveout_vals: dict[int, dict[int, object]] = {n: {} for n in dfg.live_out}
        for nid, vals in self.liveout_vals.items():
            by_id[nid].liveout = vals
        self._missing = params.n_threads * len(self.liveout_vals)  # values still to produce
        self._loads = {u.index for u in self.units if u.is_load}

        # units to examine in the next firing pass (every unit in cycle 1), and
        # units whose held result may be emittable in the next emission pass
        self._wake = {u.index for u in self.units}
        self._emit: set[int] = set()

        # unit whose issue cadence defines the measured initiation interval
        if params.mode == "dr" and config.feedback:
            primary = config.feedback[0].consumer
        elif dfg.back_edges():
            primary = dfg.back_edges()[0].dst
        else:
            primary = dfg.live_out[0] if dfg.live_out else 0
        self._primary = by_id.get(primary)
        self.primary_issues: list[int] = []  # cycles at which the primary unit fired
        # each skip's issue cycles as one run: (position in primary_issues, the
        # period's issue cycles, period, m); see _issue
        self.issue_runs: list[tuple] = []

        # periodic fast-forward: the (unit index, thread id) fires since the
        # last checkpoint while looking for a repeat, else None
        self._log = None
        if trace is None and params.n_threads >= FAST_FORWARD_MIN_THREADS:
            self._log = []
            self._saved = None  # the checkpoint (see _watch)
            self._power, self._lam, self._budget = 1, 0, FAST_FORWARD_MAX_STEPS
            self._sampled = self._missing  # live-out values missing at the last comparison
            self._columns = None  # plain live-in name -> value per thread id (see _skip)

    # -- helpers -----------------------------------------------------------

    def _emit_trace(self, cycle, event, unit, tid, value):
        cell = unit.cell
        self.trace.write(
            f"cycle={cycle} unit={cell[0]},{cell[1]} event={event} "
            f"thread={tid} value={value}\n"
        )

    @staticmethod
    def _put(unit: _Unit, slot: int, tid: int, value):
        buf = unit.buffers[slot]
        if tid in buf:
            raise SimInvariantError(
                f"duplicate token (node {unit.node.id}, slot {slot}, thread {tid})")
        buf[tid] = value

    def done(self) -> bool:
        return self._missing == 0

    # -- the next eventful cycle -------------------------------------------

    def step(self):
        """Run the next cycle in which anything can change: the next one if a
        unit is woken, an emitter is ready or an injector has room, else the
        next pending arrival or completion.  A traced run wakes every unit, so
        it runs every cycle."""
        trace = self.trace
        units = self.units
        log = self._log
        wake, emit, inject = self._wake, self._emit, self._inject
        arrivals, completions = self.arrivals, self.completions
        c = self.cycle + 1
        if trace is not None:
            # an unwoken unit repeats its last outcome: a visit only writes its stall line
            wake.update(range(len(units)))
        if not (wake or emit or inject):
            # nothing can fire, emit or inject before the next arrival or
            # completion; with none pending, cycle c has no progress and raises
            c = min(arrivals.keys() | completions.keys(), default=c)
        self.cycle = c
        progress = False
        n = self.params.n_threads
        mem_cap = self.params.mem_max_outstanding
        depth = self.config.spec.token_buffer_depth

        # 1. tokens arriving this cycle enter their buffers
        arrived = arrivals.pop(c, None)
        if arrived:
            progress = True
            for i, slot, tid, value, routed in arrived:
                u = units[i]
                if routed:
                    u.reserved[slot] -= 1
                elif u.injectors:
                    # a carried token waits until its slot's seeds are all in
                    held = next((inj[5] for inj in u.injectors if inj[1] == slot), None)
                    if held is not None:
                        held[tid] = value
                        continue
                self._put(u, slot, tid, value)
                wake.add(i)

        # 2. completions: results become emittable; loop-carried copies are
        #    retagged and scheduled (feedback or spill re-injection)
        completed = completions.pop(c, None)
        if completed:
            progress = True
            for u, tid, value in completed:
                if u.is_load:
                    self.mem_outstanding -= 1
                    if mem_cap is not None:
                        wake |= self._loads  # a load held at the cap may issue now
                if trace is not None:
                    self._emit_trace(c, "complete", u, tid, value)
                if u.liveout is not None:
                    self._missing -= 1  # a unit completes each thread once
                    u.liveout[tid] = value
                if u.emits:
                    u.out_queue.append((tid, value))
                    if len(u.out_queue) == 1:
                        emit.add(u.index)
                for consumer, slot, diff, delay in u.carriers:
                    new = ildr_retag(Token(tid, value), diff)
                    if new.thread_id >= n:
                        self.dropped_retags += 1
                        if trace is not None:
                            self._emit_trace(c, "drop", u, new.thread_id, value)
                    else:
                        if trace is not None:
                            self._emit_trace(c, "retag", u, new.thread_id, value)
                        arrivals.setdefault(c + delay, []).append(
                            (consumer, slot, new.thread_id, new.value, False))

        # 3. emission, in node order: one held result per unit per cycle, all
        #    fan-out destinations must have room (back-pressure).  Room only
        #    grows when a destination fires, so a blocked unit leaves the
        #    emitter set until then.
        if emit:
            for i in sorted(emit):
                u = units[i]
                links = u.links
                for d, s, _lat in links:
                    dst = units[d]
                    if len(dst.buffers[s]) + dst.reserved[s] >= depth:
                        emit.discard(i)
                        break
                else:
                    progress = True
                    tid, value = u.out_queue.popleft()
                    if not u.out_queue:
                        emit.discard(i)
                        wake.add(i)  # no longer held back by a pending result
                    for d, s, lat in links:
                        if lat == 0:
                            self._put(units[d], s, tid, value)
                            wake.add(d)
                        else:
                            units[d].reserved[s] += 1
                            arrivals.setdefault(c + lat, []).append((d, s, tid, value, True))

        # 4. firing, in node order, of the woken units; every other unit would
        #    repeat its last outcome.  A unit fires thread ``fires``, the next
        #    in thread order; one with buffered tokens stalls while it holds an
        #    unemitted result, while some slot lacks that thread, or while
        #    loads are at the outstanding cap.  Its stall run is credited when
        #    it next fires or in report().
        self._wake = woken = set()
        for i in sorted(wake):
            u = units[i]
            tid = u.fires
            if u.is_const:
                if tid >= n or u.out_queue:
                    continue
                value = u.node.value
            else:
                bufs = u.buffers
                if not any(bufs):
                    continue
                if u.out_queue or not all(tid in b for b in bufs) or (
                        u.is_load and mem_cap is not None and self.mem_outstanding >= mem_cap):
                    if u.since is None:
                        u.since = c
                    if trace is not None:
                        self._emit_trace(c, "stall", u, -1, 0)
                    continue
                if u.since is not None:
                    u.stalls += c - u.since
                    u.since = None
                ins = [b.pop(tid) for b in bufs]
                value = u.op(ins[0], ins[1] if u.arity == 2 else None, self.memory)
                if u.is_load:
                    self.mem_outstanding += 1
                if u is self._primary:
                    self.primary_issues.append(c)
            u.fires += 1
            progress = True
            woken.add(i)
            if log is not None:
                log.append((i, tid))
            if trace is not None:
                self._emit_trace(c, "fire", u, tid, value)
            completions.setdefault(c + u.latency, []).append((u, tid, value))
            # the freed slots let held feeders emit and live-ins refill
            for f in u.feeders:
                if units[f].out_queue:
                    emit.add(f)
            inject += u.injectors

        # 5. live-in injection, in thread order, while there is room
        if inject:
            for inj in inject:
                i, slot, lv, tid, limit, held = inj
                u = units[i]
                buf = u.buffers[slot]
                while tid < limit and len(buf) + u.reserved[slot] < depth:
                    self._put(u, slot, tid, lv.value_for(tid))
                    tid += 1
                if tid != inj[3]:
                    progress = True
                    woken.add(i)
                    inj[3] = tid
                    if tid == limit:
                        u.injectors.remove(inj)
                        for t, value in held.items():  # the carried tokens held back
                            self._put(u, slot, t, value)
            inject.clear()

        if not (progress or arrivals or completions or self.done()):
            pending = {n: len(v) for n, v in self.liveout_vals.items()}
            raise DeadlockError(c, f"live-out progress stuck at {pending}")
        if log is not None and self._missing:
            self._watch()

    # -- periodic fast-forward ---------------------------------------------

    def _stall_total(self, u: _Unit) -> int:
        """Stall cycles of ``u`` up to and including the current cycle: a unit
        still stalling has stalled in every cycle from ``since`` on."""
        return u.stalls + (self.cycle + 1 - u.since if u.since is not None else 0)

    def _signature(self):
        """The state as far as timing reads it, less the load count that
        ``_watch`` keys on: every thread id counted from a fire count (the
        unit's own for what it injects or completes, the receiving unit's for
        an arrival), a buffer or out-queue, always a run of consecutive ids,
        by its length, event times relative to the cycle, the units to visit
        next, no values."""
        c = self.cycle
        units = self.units
        state = [(list(map(len, u.buffers)), tuple(u.reserved), len(u.out_queue),
                  [(inj[1], inj[3] - u.fires) for inj in u.injectors], u.since is None)
                 for u in units]
        state.append([(a - c, [(i, s, t - units[i].fires, r) for i, s, t, _, r in es])
                      for a, es in sorted(self.arrivals.items())])
        state.append([(a - c, [(u.index, t - u.fires) for u, t, _ in es])
                      for a, es in sorted(self.completions.items())])  # cycles are unique keys
        state.append((sorted(self._wake), sorted(self._emit)))
        return state

    def _watch(self):
        """Brent's cycle detection: compare the state with a checkpoint that
        is retaken once the steps since it reach the next power of two.  Only
        a step at which a live-out value completed is compared or
        checkpointed: whether a step completes one follows from the state
        before it, so a run that repeats repeats at those steps too.  The
        step budget counts every step.  A cheap key (load count, the number of woken and emitting
        units, the number and summed offsets of pending event times) must
        match before the full signature is built."""
        self._budget -= 1
        if self._budget < 0:
            self._log = None
            return
        self._lam += 1
        if self._missing == self._sampled:
            return
        self._sampled = self._missing
        c = self.cycle
        arrivals, completions = self.arrivals, self.completions
        key = (self.mem_outstanding, len(self._wake), len(self._emit),
               len(arrivals), sum(arrivals) - c * len(arrivals),
               len(completions), sum(completions) - c * len(completions))
        saved = self._saved
        found = None
        if saved is not None and key == saved[0]:
            found = self._signature()
            if found == saved[1] and self._skip(saved):
                # look again: a unit that stopped (a const done issuing)
                # leaves the others to repeat with a longer reach
                self._saved, self._power, self._lam, self._log = None, 1, 0, []
                return
        if self._lam >= self._power:
            self._saved = (key, found or self._signature(), c, [u.fires for u in self.units],
                           [self._stall_total(u) for u in self.units], self._missing,
                           len(self.primary_issues))
            self._power *= 2
            self._lam = 0
            self._log = []

    def _skip(self, saved) -> bool:
        """Jump m whole periods past the repeat of checkpoint ``saved``, each
        unit's ids moving by k, its fire count's change.  A unit fires in
        thread order, so it completes no id at or above its fire count, and
        while m <= (n - fires - diff) // k every thread-id test (const issue,
        retag drop, live-in limit) reads as in the recorded period: a drop
        there leaves no m, so none happens in a skipped period.  Nothing is
        skipped while a seeding slot holds back carried tokens, or while a
        unit with k > 0 has not yet fired past a back slot's diff, so every
        operand of a replayed thread t is row[t - diff]: its producer's
        results or, on a plain live-in slot, the live-in's column.  Only
        operator fires are replayed, 64 periods to a block; const rows are
        filled by slice."""
        _, _, cycle0, fires0, stalls0, missing0, issues0 = saved
        n = self.params.n_threads
        units = self.units
        fires = self._log
        if not fires or any(inj[5] for u in units for inj in u.injectors):
            return False
        period = self.cycle - cycle0
        shift = [u.fires - f for u, f in zip(units, fires0)]  # unit index -> thread shift
        m = n
        for u, k in zip(units, shift):
            if k:
                if any(u.fires < d for _, d, _ in u.sources):
                    return False  # a thread the replay would fire reads a seed
                diff = max((d for _, _, d, _ in u.carriers), default=0)
                m = min(m, (n - u.fires - diff) // k)
                for inj in u.injectors:
                    m = min(m, (inj[4] - 1 - inj[3]) // k)
        produced = missing0 - self._missing  # live-out values per period
        if produced:
            m = min(m, (self._missing - 1) // produced)
        if m < 1:
            return False
        # every token in flight repeats, so a producer fires as often as its consumer
        for u in units:
            for p, _, _ in u.sources:
                if p is not None and shift[p] != shift[u.index]:
                    raise SimInvariantError(f"node {u.node.id} shifts by {shift[u.index]}, "
                                            f"its producer {units[p].node.id} by {shift[p]}")

        # values: replay the period's operator fires m times, shifted, in order
        results = [[None] * n for _ in units]  # unit index -> thread id -> result
        # unit index -> smallest id in flight as its result: after period j
        # every result still to be read has an id of at least low + j*k, since
        # what is in flight then is what is in flight now, shifted
        low = [u.fires for u in units]
        if self._columns is None:
            self._columns = {lv.name: list(map(lv.value_for, range(n)))
                             for u in units for p, _, lv in u.sources if p is None}
        # unit index -> per slot (row, diff), padded to two slots with a row of
        # None: operand t of a unit with k > 0 is row[t - diff]
        nones = [None] * n
        rows = [[(self._columns[lv.name], 0) if p is None else (results[p], d)
                 for p, d, lv in u.sources] + [(nones, 0)] * (2 - u.arity) for u in units]

        def operand(i, slot, t):
            row, d = rows[i][slot]
            return row[t - d]

        def keep(p, t, value):
            # t < 0: a seed still buffered at a unit with k = 0
            low[p] = min(low[p], t)
            if t >= 0:
                results[p][t] = value

        def note(i, slot, t, value):
            p, d, _ = units[i].sources[slot]
            if p is not None:
                keep(p, t - d, value)

        for u in units:
            for slot, buf in enumerate(u.buffers):
                for t, value in buf.items():
                    note(u.index, slot, t, value)
            for t, value in u.out_queue:
                keep(u.index, t, value)
        for es in self.arrivals.values():
            for i, slot, t, value, _ in es:
                note(i, slot, t, value)
        for es in self.completions.values():
            for u, t, value in es:
                keep(u.index, t, value)
                if u.liveout is not None:
                    u.liveout[t] = value
        # a const touches no memory and never raises: its row and live-out are
        # filled for the whole skipped range instead of replayed
        for u, k in zip(units, shift):
            if u.is_const and k:
                top = u.fires + m * k
                results[u.index][u.fires:top] = [u.node.value] * (m * k)
                if u.liveout is not None:
                    u.liveout.update(dict.fromkeys(range(u.fires, top), u.node.value))
        # per operator fire: thread id and shift, result row, op, each
        # operand's (row, diff)
        plan = [(t, shift[i], results[i], units[i].op, *rows[i][0], *rows[i][1])
                for i, t in fires if not units[i].is_const]
        # an operator live-out unit's values are written once per block: the
        # ids it fires in periods j0+1..j1 are fires + j0*k .. fires + j1*k - 1
        outs = [(u.liveout, results[u.index], u.fires, k) for u, k in zip(units, shift)
                if k and u.liveout is not None and not u.is_const]
        memory = self.memory
        for j0 in range(0, m, 64):
            j1 = min(j0 + 64, m)
            for j in range(j0 + 1, j1 + 1):
                for t, k, res, op, ra, da, rb, db in plan:
                    t += j * k
                    res[t] = op(ra[t - da], rb[t - db], memory)
            for out, res, top, k in outs:
                start = top + j0 * k
                out.update(enumerate(res[start:top + j1 * k], start))
            if j1 - j0 == 64:  # drop the results nothing can read any more
                for res, lo, k in zip(results, low, shift):
                    start, stop = max(lo + j0 * k, 0), max(lo + j1 * k, 0)
                    res[start:stop] = nones[start:stop]

        # the state m periods on: ids shifted by m*k, times by m*period; a
        # unit with k = 0 keeps its buffers, which may hold seeds
        D = m * period
        K = [m * k for k in shift]  # unit index -> id shift
        for u in units:
            i = u.index
            u.fires += K[i]
            u.stalls += m * (self._stall_total(u) - stalls0[i])
            if u.since is not None:
                u.since += D
            if K[i]:
                u.buffers = [{t + K[i]: operand(i, slot, t + K[i]) for t in buf}
                             for slot, buf in enumerate(u.buffers)]
                u.out_queue = deque((t + K[i], results[i][t + K[i]]) for t, _ in u.out_queue)
            for inj in u.injectors:
                inj[3] += K[i]
        self.arrivals = {a + D: [(i, slot, t + K[i], operand(i, slot, t + K[i]), r)
                                 for i, slot, t, _, r in es]
                         for a, es in self.arrivals.items()}
        self.completions = {a + D: [(u, t + K[u.index], results[u.index][t + K[u.index]])
                                    for u, t, _ in es]
                            for a, es in self.completions.items()}
        self.issue_runs.append((len(self.primary_issues), self.primary_issues[issues0:],
                                period, m))
        self.cycle += D
        self._missing -= m * produced
        return True

    def _issue(self, q: int) -> int:
        """The primary unit's q-th issue cycle, each skip's run of m periods
        counted in place."""
        before = 0  # entries the runs so far add ahead of primary_issues
        for pos, issues, period, m in self.issue_runs:
            r = q - pos - before
            if r < 0:
                break
            if r < len(issues) * m:
                j, r = divmod(r, len(issues))
                return issues[r] + (j + 1) * period
            before += len(issues) * m
        return self.primary_issues[q - before]

    def report(self) -> SimReport:
        n = self.params.n_threads
        live = [{} for _ in range(n)]
        # one live-out column at a time: a dict comprehension per thread
        # took about three times as long at 4096 threads
        for nid in self.dfg.live_out:
            for row, v in zip(live, map(self.liveout_vals[nid].__getitem__, range(n))):
                row[nid] = v
        count = len(self.primary_issues) + sum(len(r[1]) * r[3] for r in self.issue_runs)
        ii = None
        if count >= 3:
            mid = count // 2
            ii = (self._issue(count - 1) - self._issue(mid)) / (count - 1 - mid)
        stalls = {u.node.id: self._stall_total(u) for u in self.units}
        return SimReport(
            mode=self.params.mode,
            n_threads=n,
            total_cycles=self.cycle,
            fires={u.node.id: u.fires for u in self.units},
            stalls=stalls,
            dropped_retags=self.dropped_retags,
            selector_drops=0,
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

    Only defined for a single realized dependency of diff 1 (with diff d,
    d threads share the recurrence) whose pattern is single-path or
    diverging-after.  dr: dependent-path compute and route cycles plus the
    feedback write.  baseline: the same path cost plus the spill round trip
    (flat spill latency + port-to-consumer re-entry hops).
    """
    deps = find_deps(dfg, config.spec.latencies)
    if len(deps) != 1:
        raise IIOracleError("unsupported-pattern", f"{len(deps)} dependencies, need exactly 1")
    dep = deps[0]
    if dep.diff != 1:
        raise IIOracleError("unsupported-pattern", f"diff {dep.diff} not supported, need 1")
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
