"""Deterministic cycle-level simulation of a mapped loop graph.

Execution follows the tagged-token discipline: a token is a thread id, a
unit fires its threads in order, each as soon as all of its input slots hold
that thread's token, and tokens flow along the static routes.  Loop-carried
values cross iterations in one of two ways depending on the mode:

* ``dr``   -- the producing unit's result is retagged (+diff) one cycle
  after completion and written straight into the consumer's dependent
  input slot (via the end-of-route update detour when producer and
  consumer differ).
* ``baseline`` -- the value is spilled out of the grid and re-injected at
  the consumer: the token pays a flat spill latency plus the hop distance
  from the grid port to the consumer cell, and the consuming thread stalls
  until it arrives.

A live-in's tokens are ordinary arrivals, all at the start of cycle 2: a
dependent slot's live-in sends its ``min(diff, n)`` seeds, which the unit's
fires consume, and a plain live-in one standing token, which no fire
consumes (a unit decrements only the slots a producer feeds, ``fed``).  No
unit but a const fires in cycle 1, and a carried token arrives in cycle 3 at
the earliest (every latency is at least 1), behind the seeds; it serves
every later thread as the selector does, so ``selector_drops`` is always 0
and no state holds it.  This is exact: firing and stall decisions read only
whether a slot is empty, and a live-in slot refilled after every fire would
never be empty while threads remain.  So every slot receives its threads in
order, a buffer is a count of the unit's next threads, and a unit's next
thread is its fire count; at thread n a unit neither fires nor stalls.

Values do not travel with the tokens.  Each unit has one result row indexed
by thread id, written once, when it fires thread t (a const's row is filled
at the start).  Firing thread t reads each operand as its producer's
``row[t - diff]`` (diff 0 on an intra edge), a plain live-in's column, or,
below ``diff``, the seeding live-in.  The report keeps each live-out unit's
row as that node's column, uncopied; its per-thread ``live_out`` dicts are
built only when read.

Each cycle runs four phases in order: arrivals enter buffers (the live-ins'
in cycle 2), completions queue results and schedule carried copies, units
emit held results (node order), units fire (node order).  A token routed
with zero latency lands during emission and can fire the same cycle.  Node
order matters in two places: an emission can fill the slot a later unit's
emission needed, and under ``mem_max_outstanding`` a load that fires takes a
slot a higher-numbered load in the same cycle then lacks.

The kernel is event-driven but reproduces the cycle-by-cycle outcome
exactly.  A unit's firing outcome depends only on its buffers, its held
results and, for loads, ``mem_outstanding``, so the firing phase visits only
units whose buffers or held results changed or that fired last cycle, and
under the cap every load once a load completes (a rising count cannot
unblock one); any other unit would repeat its last outcome.  A blocked
emitter is retried only after one of its destinations fires (nothing else
frees room).  When nothing is left to visit, the kernel jumps to the next
pending arrival or completion.  A stalling unit records the cycle its stall
run began and is credited the run's length when it next fires or when the
report is built.
A traced run visits every unit on every cycle and never jumps: an unwoken
unit repeats its last outcome, so the visit changes no state and only writes
the stall line of a unit still stalling.  That is the schedule of the plain
cycle-by-cycle stepper in ``tests/_stepper_oracle.py``.  A cycle with no
progress and nothing in flight before every live-out exists raises
DeadlockError at once: no state changed, so every later cycle would repeat
it.

Every loop iteration is its own thread, so a unit's fire count says where it
stands in thread space, and a run in steady state repeats its state exactly
up to a shift of thread ids.  An untraced run of at least
``FAST_FORWARD_MIN_THREADS`` threads watches for that repeat with Nivasch's
stack for at most ``FAST_FORWARD_MAX_STEPS`` steps after its start or its
last skip, sampling only the steps at which a live-out value completed.  The
signature counts every thread id from a fire count: the ids a unit completes
from its own, the ids in an arrival from the receiving unit's.  It holds the
load count, the buffer counts, the length of each held result queue (a run
of consecutive ids), which units are mid-stall, event times relative to the
cycle and the units to visit next.  A repeat after P cycles moves each unit
by k, its own fire-count change.  Every token in flight repeats, so a
producer moves as its consumer does, while units that share no edge (loads
under the memory cap among them) each keep their own k.  The kernel then
skips m whole periods, m as large as keeps each moving unit's next thread,
plus its largest retag diff, below n (so no retag is dropped in a skipped
period, and no unit reaches thread n, where it would stop stalling): fires,
stalls, the cycle and the live-out count grow by m times the period's
change, and the primary unit's issue cycles are kept as one run (position,
the period's cycles, P, m).  This is exact because timing never reads a
value.  The values come from replaying the period's operator fires, shifted,
in fire order into the same rows through each unit's ``ir.OPS`` op and the
same memory, so stores, loads and the first ExecError are those of a full
run.  The replay reads every operand as ``row[t - diff]``, so no period is
skipped before each unit that moves has fired past its back slots' diffs.
It runs in blocks of 64 periods; after each, a slice clears the ids below
every consumer's next read (never on a live-out's row).  Detection then
starts over, since a unit that stopped (a const done issuing) can leave the
rest to repeat for longer; the normal kernel finishes the tail, deadlocks
included.  A traced run never skips, so its trace lists every cycle.  A
single simulation is strictly single-threaded; distinct simulations share no
state.
"""

from __future__ import annotations

from collections import deque

from . import _Record
from .analysis import LoopPattern, classify, find_deps
from .grid import GridConfig, GridSpec, _require_int
from .ir import OPS, DataflowGraph, DfgError, Node


FAST_FORWARD_MIN_THREADS = 64  # untraced runs this long look for a periodic state
FAST_FORWARD_MAX_STEPS = 4096  # steps watched for a repeat before giving up


class MachineParams(_Record):
    _fields = ("mode", "n_threads", "mem_latency", "mem_max_outstanding", "spill_latency")

    def __init__(self, mode: str = "dr", n_threads: int = 1, mem_latency: int = 20,
                 mem_max_outstanding: int | None = None, spill_latency: int = 8):
        self.mode = mode  # "baseline" | "dr"
        self.n_threads = n_threads
        self.mem_latency = mem_latency
        self.mem_max_outstanding = mem_max_outstanding  # None = unlimited
        self.spill_latency = spill_latency
        if self.mode not in ("baseline", "dr"):
            raise ValueError(f"unknown mode '{self.mode}'")
        _require_int("n_threads", self.n_threads, 1)
        _require_int("mem_latency", self.mem_latency, 1)
        _require_int("spill_latency", self.spill_latency, 0)
        if self.mem_max_outstanding is not None:  # None = unlimited
            _require_int("mem_max_outstanding", self.mem_max_outstanding, 1)


def unit_latency(nd: Node, spec: GridSpec, params: MachineParams) -> int:
    """Cycles from a unit firing to its result: loads pay the memory latency."""
    return params.mem_latency if nd.kind == "load" else spec.latencies[nd.latency_class]


class SimReport(_Record):
    _fields = ("mode", "n_threads", "total_cycles", "fires", "stalls", "dropped_retags",
               "live_columns", "measured_ii", "selector_drops")

    def __init__(self, mode: str, n_threads: int, total_cycles: int, fires: dict[int, int],
                 stalls: dict[int, int], dropped_retags: int, live_columns: dict[int, list],
                 measured_ii: float | None, selector_drops: int = 0):
        self.mode = mode
        self.n_threads = n_threads
        self.total_cycles = total_cycles
        self.fires = fires
        self.stalls = stalls
        self.dropped_retags = dropped_retags
        self.live_columns = live_columns  # live-out node id -> its value per thread id
        self.measured_ii = measured_ii
        # no state sets it: a dependent slot takes seeds below its diff only
        self.selector_drops = selector_drops

    @property
    def live_out(self) -> list[dict[int, object]]:
        """Per thread, {live-out node id: value}; rebuilt from the columns on
        each access."""
        live = [{} for _ in range(self.n_threads)]
        # one column at a time: a dict comprehension per thread took about
        # three times as long at 4096 threads
        for nid, col in self.live_columns.items():
            for row, v in zip(live, col):
                row[nid] = v
        return live

    def to_json(self) -> dict:
        # each thread's object straight from the columns, in node id order
        nids = sorted(self.live_columns)
        keys = [str(k) for k in nids]
        live = ([dict(zip(keys, vals)) for vals in zip(*map(self.live_columns.get, nids))]
                if nids else [{} for _ in range(self.n_threads)])
        return {
            "mode": self.mode,
            "n_threads": self.n_threads,
            "total_cycles": self.total_cycles,
            "fires": {str(k): v for k, v in sorted(self.fires.items())},
            "stalls": {str(k): v for k, v in sorted(self.stalls.items())},
            "dropped_retags": self.dropped_retags,
            "selector_drops": self.selector_drops,
            "measured_ii": self.measured_ii,
            "live_out": live,
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
                 "emits", "row", "buffers", "reserved", "out_queue", "links", "feeders",
                 "carriers", "sources", "fed", "ins", "liveout", "fires", "stalls", "since")

    def __init__(self, index, node, cell, latency, n):
        self.index = index  # position in node order, which is firing order
        self.node = node
        self.cell = cell
        self.latency = latency
        self.arity = node.n_inputs
        self.op = OPS.get(node.kind)  # None on a const
        self.is_const = node.kind == "const"
        self.is_load = node.kind == "load"
        self.emits = node.kind != "sink"
        self.row = [node.value if self.is_const else None] * n  # thread id -> result
        self.buffers = [0] * self.arity  # tokens per slot: threads fires, fires + 1, ...
        self.reserved = [0] * self.arity
        self.out_queue = deque()
        # other units appear by index only: no reference cycles, so a finished
        # simulation is freed at once instead of waiting for the cyclic GC
        self.links = []  # (destination, slot, route latency)
        self.feeders = []  # units with a route into this one
        self.carriers = []  # (consumer, slot, diff, delay >= 1)
        # per slot: (producer index or None, diff (0 on an intra edge), livein or None)
        self.sources = [(None, 0, None)] * self.arity
        self.fed = None  # the slots a producer feeds, whose tokens a fire consumes
        self.ins = None  # per slot, padded to two: (row, diff, seeding livein); see SimState
        self.liveout = False
        self.fires = 0  # the unit fires thread ``fires`` next
        self.stalls = 0  # stall cycles credited so far
        self.since = None  # first cycle of the current uncredited stall run


class SimState:
    """One in-flight simulation; ``step`` runs the next cycle in which
    anything can happen (every cycle when traced), crediting the stalls of
    the quiet cycles it skips."""

    def __init__(self, config: GridConfig, dfg: DataflowGraph, params: MachineParams,
                 trace=None):
        self.params = params
        self.depth = config.spec.token_buffer_depth
        self.trace = trace
        self.arrivals: dict[int, list] = {}
        self.completions: dict[int, list] = {}

        n = params.n_threads
        self.units = [_Unit(i, nd, config.placement[nd.id],
                            unit_latency(nd, config.spec, params), n)
                      for i, nd in enumerate(dfg.nodes)]
        by_id = {u.node.id: u for u in self.units}

        spilled = {e.key() for e in dfg.back_edges()}
        if params.mode == "dr":
            for att in config.feedback:
                by_id[att.producer].carriers.append(
                    (by_id[att.consumer].index, att.consumer_slot, att.diff,
                     att.feedback_latency))
            spilled = set(config.baseline_only)

        # a slot takes one edge, plus a seeding livein on a back edge's slot;
        # parse_dfg accepts any slot number, but a token for a missing slot has
        # no buffer
        for e in dfg.edges:
            src, u = by_id[e.src], by_id[e.dst]
            if not 0 <= e.slot < u.arity:
                raise DfgError("arity-mismatch", f"{e.kind} edge {e.src}->{e.dst}: node "
                               f"{e.dst} ({u.node.kind}) has no slot {e.slot}")
            if u.sources[e.slot][0] is not None:
                raise DfgError("duplicate-slot", f"slot {e.slot} of node {e.dst} bound twice")
            if e.kind == "back":
                u.sources[e.slot] = (src.index, e.diff, None)
                if e.key() in spilled:
                    delay = config.reinjection_latency(e.dst) + params.spill_latency
                    src.carriers.append((u.index, e.slot, e.diff, max(delay, 1)))
            else:
                u.sources[e.slot] = (src.index, 0, None)
                src.links.append((u.index, e.slot, config.routes[e.key()].latency))
                if src.index not in u.feeders:
                    u.feeders.append(src.index)
        # a live-in's tokens arrive at the start of cycle 2, before any unit but
        # a const has fired: a dependent slot's seeds, one per thread below its
        # diff, or a plain slot's one standing token
        for lv in dfg.live_in.values():
            u = by_id[lv.node]
            if not 0 <= lv.slot < u.arity:
                raise DfgError("arity-mismatch", f"livein '{lv.name}': node {lv.node} "
                               f"({u.node.kind}) has no slot {lv.slot}")
            p, d, seed = u.sources[lv.slot]
            if seed is not None or (p is not None and not d):
                raise DfgError("duplicate-slot", f"slot {lv.slot} of node {lv.node} bound twice")
            if not lv.values:
                raise DfgError("livein-length", f"livein '{lv.name}' has no values")
            u.sources[lv.slot] = (p, d, lv)
            self.arrivals.setdefault(2, []).extend(
                (u.index, lv.slot, t, False) for t in range(min(d, n) if d else 1))
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
        # operand t of a slot is row[t - diff], or its seed below diff; a second
        # slot of None pads a one-input unit
        self._nones = [None] * n
        for u in self.units:
            for slot, (p, d, lv) in enumerate(u.sources):
                # a unit with an unfed slot never fires; the reference refuses the graph
                if p is None and lv is None:
                    raise DfgError("unfed-slot", f"slot {slot} of node {u.node.id} "
                                   f"({u.node.kind}) has no input")
                if d and lv is None and u.index not in live:
                    raise DfgError("missing-livein", f"back edge into slot {slot} of node "
                                   f"{u.node.id} has no livein and feeds no live-out")
            u.fed = [s for s, (p, _, _) in enumerate(u.sources) if p is not None]
            u.ins = [(self.units[p].row if p is not None else lv.column(n), d, lv)
                     for p, d, lv in u.sources] + [(self._nones, 0, None)] * (2 - u.arity)

        self.memory = dict(dfg.memory_image)
        self.mem_outstanding = 0
        self.cycle = 0
        self.dropped_retags = 0
        self._outs = {nid: by_id[nid] for nid in dfg.live_out}  # live-out units, once each
        for u in self._outs.values():
            u.liveout = True
        self._missing = n * len(self._outs)  # values still to produce
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
        # stack's bottom entry was pushed while looking for a repeat, else None
        self._log = None
        if trace is None and n >= FAST_FORWARD_MIN_THREADS:
            self._log = []
            self._stack = []  # sampled states, signatures increasing (see _watch)
            self._budget = FAST_FORWARD_MAX_STEPS
            self._sampled = self._missing  # live-out values missing at the last sample

    # -- helpers -----------------------------------------------------------

    def _emit_trace(self, cycle, event, unit, tid, value):
        cell = unit.cell
        self.trace.write(
            f"cycle={cycle} unit={cell[0]},{cell[1]} event={event} "
            f"thread={tid} value={value}\n"
        )

    @staticmethod
    def _put(unit: _Unit, slot: int, tid: int):
        want = unit.fires + unit.buffers[slot]
        if tid != want:
            raise SimInvariantError(f"token out of order (node {unit.node.id}, slot {slot}, "
                                    f"thread {tid}, expected {want})")
        unit.buffers[slot] += 1

    def done(self) -> bool:
        return self._missing == 0

    # -- the next eventful cycle -------------------------------------------

    def step(self):
        """Run the next cycle in which anything can change: the next one if a
        unit is woken or an emitter is ready, else the next pending arrival or
        completion.  A traced run wakes every unit, so it runs every cycle."""
        trace = self.trace
        units = self.units
        log = self._log
        wake, emit = self._wake, self._emit
        arrivals, completions = self.arrivals, self.completions
        c = self.cycle + 1
        if trace is not None:
            # an unwoken unit repeats its last outcome: a visit only writes its stall line
            wake.update(range(len(units)))
        if not (wake or emit):
            # nothing can fire or emit before the next arrival or completion;
            # with none pending, cycle c has no progress and raises
            c = min(arrivals.keys() | completions.keys(), default=c)
        self.cycle = c
        progress = False
        n = self.params.n_threads
        mem_cap = self.params.mem_max_outstanding
        depth = self.depth

        # 1. tokens arriving this cycle enter their buffers, the live-ins' in cycle 2
        arrived = arrivals.pop(c, None)
        if arrived:
            progress = True
            for i, slot, tid, routed in arrived:
                u = units[i]
                if routed:
                    u.reserved[slot] -= 1
                self._put(u, slot, tid)
                wake.add(i)

        # 2. completions: results become emittable; loop-carried copies are
        #    retagged and scheduled (feedback or spill re-injection)
        completed = completions.pop(c, None)
        if completed:
            progress = True
            for u, tid in completed:
                if u.is_load:
                    self.mem_outstanding -= 1
                    if mem_cap is not None:
                        wake |= self._loads  # a load held at the cap may issue now
                if trace is not None:
                    self._emit_trace(c, "complete", u, tid, u.row[tid])
                if u.liveout:
                    self._missing -= 1  # a unit completes each thread once
                if u.emits:
                    u.out_queue.append(tid)
                    if len(u.out_queue) == 1:
                        emit.add(u.index)
                for consumer, slot, diff, delay in u.carriers:
                    if tid + diff >= n:
                        self.dropped_retags += 1
                        if trace is not None:
                            self._emit_trace(c, "drop", u, tid + diff, u.row[tid])
                    else:
                        if trace is not None:
                            self._emit_trace(c, "retag", u, tid + diff, u.row[tid])
                        arrivals.setdefault(c + delay, []).append(
                            (consumer, slot, tid + diff, False))

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
                    if dst.buffers[s] + dst.reserved[s] >= depth:
                        emit.discard(i)
                        break
                else:
                    progress = True
                    tid = u.out_queue.popleft()
                    if not u.out_queue:
                        emit.discard(i)
                        wake.add(i)  # no longer held back by a pending result
                    for d, s, lat in links:
                        if lat == 0:
                            self._put(units[d], s, tid)
                            wake.add(d)
                        else:
                            units[d].reserved[s] += 1
                            arrivals.setdefault(c + lat, []).append((d, s, tid, True))

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
            if tid >= n:
                continue
            if u.is_const:
                if u.out_queue:
                    continue
            else:
                bufs = u.buffers
                if not any(bufs):
                    continue
                if u.out_queue or not all(bufs) or (
                        u.is_load and mem_cap is not None and self.mem_outstanding >= mem_cap):
                    if u.since is None:
                        u.since = c
                    if trace is not None:
                        self._emit_trace(c, "stall", u, -1, 0)
                    continue
                if u.since is not None:
                    u.stalls += c - u.since
                    u.since = None
                for s in u.fed:
                    bufs[s] -= 1
                u.row[tid] = u.op(*[row[tid - d] if tid >= d else lv.value_for(tid)
                                    for row, d, lv in u.ins], self.memory)
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
                self._emit_trace(c, "fire", u, tid, u.row[tid])
            completions.setdefault(c + u.latency, []).append((u, tid))
            # the freed slots let held feeders emit
            for f in u.feeders:
                if units[f].out_queue:
                    emit.add(f)

        if not (progress or arrivals or completions or self.done()):
            # nothing is in flight, so each live-out has completed every thread it fired
            pending = {nid: u.fires for nid, u in self._outs.items()}
            raise DeadlockError(c, f"live-out progress stuck at {pending}")
        if log is not None and self._missing:
            self._watch()

    # -- periodic fast-forward ---------------------------------------------

    def _stall_total(self, u: _Unit) -> int:
        """Stall cycles of ``u`` up to and including the current cycle: a unit
        still stalling has stalled in every cycle from ``since`` on."""
        return u.stalls + (self.cycle + 1 - u.since if u.since is not None else 0)

    def _signature(self):
        """The state as far as timing reads it, as flat lists whose positions
        hold one type in every state of a run, so any two compare: the load
        count, buffer counts, out-queue lengths and mid-stall flags; pending
        arrivals and completions, times counted from the cycle and thread ids
        from a fire count (the receiving unit's, or the completing unit's own);
        the units to visit.  Reserved room is the count of routed arrivals."""
        c = self.cycle
        units = self.units
        head = [self.mem_outstanding, *[b for u in units for b in u.buffers],
                *[len(u.out_queue) for u in units], *[u.since is None for u in units]]
        return [head,
                [(a - c, i, s, t - units[i].fires, r)
                 for a, es in sorted(self.arrivals.items()) for i, s, t, r in es],
                [(a - c, u.index, t - u.fires)
                 for a, es in sorted(self.completions.items()) for u, t in es],
                sorted(self._wake), sorted(self._emit)]

    def _watch(self):
        """Nivasch's stack: pop the sampled states above this one; one equal
        to the new top is a repeat, found at most one period after the run
        first repeats.  Only steps that complete a live-out value are sampled
        (the state before a step decides that, so a repeating run repeats
        there too); the step budget counts every step since the last skip.
        The fire log is cleared when the stack's bottom changes: an entry
        replays only the fires from its own position on, and no entry lies
        below the bottom one."""
        self._budget -= 1
        if self._budget < 0:
            self._log = None
            return
        if self._missing == self._sampled:
            return
        self._sampled = self._missing
        found = self._signature()
        stack = self._stack
        while stack and stack[-1][0] > found:
            stack.pop()
        if stack and stack[-1][0] == found:
            if self._skip(stack.pop()):  # else the top becomes this state
                # look again: a stopped unit (a const done issuing) can leave
                # the others to repeat with a longer reach
                stack.clear()
                self._budget = FAST_FORWARD_MAX_STEPS
                return
        if not stack:
            self._log.clear()
        stack.append((found, self.cycle, [u.fires for u in self.units],
                      [self._stall_total(u) for u in self.units], self._missing,
                      len(self.primary_issues), len(self._log)))

    def _skip(self, saved) -> bool:
        """Jump m whole periods past the repeat of sampled state ``saved``, each
        unit's ids moving by k, its fire count's change.  A unit fires in
        thread order, so it completes no id at or above its fire count, and
        while m <= (n - 1 - fires - diff) // k every thread-id test reads as
        in the recorded period: each moving unit's next thread stays below n,
        so it still fires or stalls as it did (a unit at thread n does
        neither, though a plain live-in's standing token stays), and no retag
        is dropped (a drop in the recorded period leaves no m).  The bound
        also leaves a live-out value missing: a live-out unit that completes
        values in the period fires as many (the state repeats), so its k >= 1
        keeps its thread n - 1 unfired.  Nothing is skipped while a unit with
        k > 0 has not yet fired past a back slot's diff, so every operand of a
        replayed thread t is row[t - diff].  The replay writes the operator
        fires' results into the rows, 64 periods to a block; the tokens in
        flight only move their ids."""
        _, cycle0, fires0, stalls0, missing0, issues0, pos = saved
        n = self.params.n_threads
        units = self.units
        fires = self._log[pos:]
        if not fires:
            return False
        period = self.cycle - cycle0
        shift = [u.fires - f for u, f in zip(units, fires0)]  # unit index -> thread shift
        m = n
        for u, k in zip(units, shift):
            if k:
                if any(u.fires < d for _, d, _ in u.sources):
                    return False  # a thread the replay would fire reads a seed
                diff = max((d for _, _, d, _ in u.carriers), default=0)
                m = min(m, (n - 1 - u.fires - diff) // k)
        produced = missing0 - self._missing  # live-out values per period
        if m < 1:
            return False
        # unit index -> the lowest id of its row a consumer still reads; every
        # token in flight repeats, so a producer fires as often as its consumer
        low = [u.fires for u in units]
        for u in units:
            for p, d, _ in u.sources:
                if p is not None:
                    if shift[p] != shift[u.index]:
                        raise SimInvariantError(f"node {u.node.id} shifts by {shift[u.index]}, "
                                                f"its producer {units[p].node.id} by {shift[p]}")
                    low[p] = min(low[p], u.fires - d)

        # values: replay the period's operator fires m times, shifted, in order;
        # per fire: thread id and shift, result row, op, each operand's (row, diff)
        plan = []
        for i, t in fires:
            u = units[i]
            if not u.is_const:
                (ra, da, _), (rb, db, _) = u.ins
                plan.append((t, shift[i], u.row, u.op, ra, da, rb, db))
        # after period j a consumer reads u's row from low + j*k on
        drops = [(u.row, low[u.index], k) for u, k in zip(units, shift) if k and not u.liveout]
        memory, nones = self.memory, self._nones
        for j0 in range(0, m, 64):
            j1 = min(j0 + 64, m)
            for j in range(j0 + 1, j1 + 1):
                for t, k, res, op, ra, da, rb, db in plan:
                    t += j * k
                    res[t] = op(ra[t - da], rb[t - db], memory)
            if j1 - j0 == 64:  # drop the results nothing can read any more
                for res, lo, k in drops:
                    start, stop = max(lo + j0 * k, 0), max(lo + j1 * k, 0)
                    res[start:stop] = nones[start:stop]

        # the state m periods on: ids shifted by m*k, times by m*period
        D = m * period
        K = [m * k for k in shift]  # unit index -> id shift
        for u in units:
            i = u.index
            u.fires += K[i]
            u.stalls += m * (self._stall_total(u) - stalls0[i])
            if u.since is not None:
                u.since += D
            if K[i]:
                u.out_queue = deque(t + K[i] for t in u.out_queue)
        self.arrivals = {a + D: [(i, slot, t + K[i], r) for i, slot, t, r in es]
                         for a, es in self.arrivals.items()}
        self.completions = {a + D: [(u, t + K[u.index]) for u, t in es]
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
        count = len(self.primary_issues) + sum(len(r[1]) * r[3] for r in self.issue_runs)
        ii = None
        if count >= 3:
            mid = count // 2
            ii = (self._issue(count - 1) - self._issue(mid)) / (count - 1 - mid)
        stalls = {u.node.id: self._stall_total(u) for u in self.units}
        return SimReport(
            mode=self.params.mode,
            n_threads=self.params.n_threads,
            total_cycles=self.cycle,
            fires={u.node.id: u.fires for u in self.units},
            stalls=stalls,
            dropped_retags=self.dropped_retags,
            live_columns={nid: u.row for nid, u in self._outs.items()},
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
