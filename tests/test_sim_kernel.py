"""The event-driven kernel against the cycle-by-cycle stepper it replaced.

``_stepper_oracle`` walks every unit on every cycle, so any wake-up, skip
or lazy stall credit the kernel gets wrong shows up here as a different
report, a different text trace or a different deadlock cycle.  Untraced
runs of ``sim.FAST_FORWARD_MIN_THREADS`` or more threads also jump over
whole periods of a repeating state; the long runs here check that jump.
"""

import gc
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import _skip_oracle as skip_oracle
import _stepper_oracle as oracle
from _random_graphs import random_dfg
from conftest import FIXTURES
from loopgrid import sim
from loopgrid.grid import default_grid, map_graph
from loopgrid.ir import DfgError, ExecError, load_dfg, parse_dfg, reference_execute
from loopgrid.sim import DeadlockError, MachineParams

TRACED_UP_TO = 64  # thread counts above this compare reports only


class Discard:
    """A trace sink: a traced run visits every unit each cycle and never skips."""

    def write(self, text):
        pass


def outcome(simulate, cfg, g, params, traced):
    """Report JSON text (or the deadlock cycle and message, or the first
    ExecError) and the text trace.  As text, a nan live-out equals itself."""
    buf = io.StringIO() if traced else None
    try:
        got = json.dumps(simulate(cfg, g, params, trace=buf).to_json(), sort_keys=True)
    except DeadlockError as exc:
        got = ("deadlock", exc.cycle, str(exc))
    except ExecError as exc:
        got = ("exec", exc.code, str(exc))
    return got, buf.getvalue() if traced else None


def assert_same(cfg, g, params, label=None):
    """Kernel == oracle; returns the common outcome and trace."""
    traced = params.n_threads <= TRACED_UP_TO
    want = outcome(oracle.simulate, cfg, g, params, traced)
    assert outcome(sim.simulate, cfg, g, params, traced) == want, label
    if traced:  # the untraced path visits fewer units; same report
        assert outcome(sim.simulate, cfg, g, params, False)[0] == want[0], label
    return want


def assert_reference(got, g, n):
    """The outcome is the reference's live-outs, or its ExecError."""
    try:
        rows = reference_execute(g, n)
    except ExecError as exc:
        assert got == ("exec", exc.code, str(exc))
        return
    rows = [{str(k): v for k, v in row.items()} for row in rows]
    assert isinstance(got, str), got
    assert (json.dumps(json.loads(got)["live_out"], sort_keys=True)
            == json.dumps(rows, sort_keys=True))


def assert_fires_in_order(trace):
    """Every unit fires threads 0, 1, 2, ... in that order."""
    fired = {}
    for line in trace.splitlines():
        _, unit, event, thread, _ = line.split()
        if event == "event=fire":
            fired.setdefault(unit, []).append(int(thread.removeprefix("thread=")))
    assert fired
    for unit, tids in fired.items():
        assert tids == list(range(len(tids))), unit


def fixture_graphs(fixtures):
    for path in sorted(fixtures.glob("*.dfg")):
        g = load_dfg(str(path))
        yield path.name, g, map_graph(g)


@pytest.mark.parametrize("mode", ["baseline", "dr"])
def test_fixtures_match_oracle(fixtures, mode):
    for name, g, cfg in fixture_graphs(fixtures):
        for n in (1, 7, 8, 64, 512):
            assert_same(cfg, g, MachineParams(mode=mode, n_threads=n), (name, n))


@pytest.mark.parametrize("mode", ["baseline", "dr"])
def test_fixtures_match_oracle_when_fast_forwarded(fixtures, mode):
    for name, g, cfg in fixture_graphs(fixtures):
        assert_same(cfg, g, MachineParams(mode=mode, n_threads=4096), name)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_memory_cap_matches_oracle(fixtures, cap):
    # loads fire in node order, so the lowest id takes the last free slot
    g = load_dfg(str(fixtures / "wrf_mem.dfg"))
    cfg = map_graph(g)
    for mode in ("baseline", "dr"):
        for n in (5, 48):
            assert_same(cfg, g, MachineParams(mode=mode, n_threads=n, mem_max_outstanding=cap,
                                              mem_latency=3 + n % 7))
    checked = 0
    for seed in range(300):
        g = random_dfg(seed)
        if sum(nd.kind == "load" for nd in g.nodes) < 2:
            continue
        checked += 1
        assert_same(map_graph(g), g, MachineParams(mode=("dr", "baseline")[seed % 2],
                                                   n_threads=9, mem_max_outstanding=cap,
                                                   mem_latency=2 + seed % 5))
    assert checked >= 10


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.sampled_from(["baseline", "dr"]),
       st.integers(min_value=1, max_value=24),
       st.sampled_from([16, 1, 2, 3]),
       st.sampled_from([1, 0, 2]),
       st.booleans())
def test_random_graphs_match_oracle(seed, mode, n, depth, hop, unseed):
    # shallow buffers and zero-hop routes stress back-pressure and same-cycle
    # delivery; dropping back-edge seeds makes deadlocks, or a refusal where
    # no live-out depends on the starved consumer
    g = random_dfg(seed)
    if unseed:
        seeded = {(e.dst, e.slot) for e in g.edges if e.kind == "back"}
        g.live_in = {k: lv for k, lv in g.live_in.items() if (lv.node, lv.slot) not in seeded}
    spec = default_grid()
    spec.token_buffer_depth, spec.hop_latency = depth, hop
    cfg = map_graph(g, spec)
    params = MachineParams(mode=mode, n_threads=n, spill_latency=seed % 9)
    try:
        sim.SimState(cfg, g, params)
    except DfgError as exc:
        assert unseed and exc.code == "missing-livein"
        with pytest.raises(ExecError) as ref:
            reference_execute(g, n)
        assert ref.value.code == "missing-livein"
        return
    assert_same(cfg, g, params)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.sampled_from(["baseline", "dr"]),
       st.integers(min_value=200, max_value=2000),
       st.sampled_from([None, 1, 2, 3]),
       st.sampled_from([16, 1, 2]),
       st.sampled_from([1, 0, 2]))
def test_long_random_runs_match_oracle(seed, mode, n, cap, depth, hop):
    # long enough that most runs repeat and are fast-forwarded
    g = random_dfg(seed)
    spec = default_grid()
    spec.token_buffer_depth, spec.hop_latency = depth, hop
    params = MachineParams(mode=mode, n_threads=n, mem_max_outstanding=cap,
                           mem_latency=2 + seed % 19, spill_latency=seed % 9)
    assert_same(map_graph(g, spec), g, params)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.sampled_from(["baseline", "dr"]),
       st.integers(min_value=8, max_value=200),
       st.sampled_from([1, 2, 3, 16]))
def test_wide_diff_graphs_match_oracle_and_reference(seed, mode, n, depth):
    # a back edge whose diff exceeds the buffer depth: in the oracle, the
    # slot's seeds and the carried tokens of later threads contend for its
    # room; in the kernel every seed arrives at the start of cycle 2
    g = random_dfg(seed, max_diff=12)
    spec = default_grid()
    spec.token_buffer_depth = depth
    got, trace = assert_same(map_graph(g, spec), g, MachineParams(mode=mode, n_threads=n))
    assert_reference(got, g, n)
    if trace is not None:
        assert_fires_in_order(trace)


# a back edge of diff 6 into a depth-1 slot: a carried token that entered
# ahead of the seeds deadlocked the first and fired the second out of order
WIDE_DIFF_AT_DEPTH_1 = {
    "deadlocked": "node 0 const 1; node 1 add; edge 0 1 0; back 1 1 1 6; "
                  "livein a 1 1 0 0 0 0 0 0; liveout 1",
    "out-of-order": "node 0 splitjoin; back 0 0 0 6; livein a 0 0 1 2 3 4 5 6; liveout 0",
}


@pytest.mark.parametrize("mode", ["baseline", "dr"])
@pytest.mark.parametrize("name", WIDE_DIFF_AT_DEPTH_1)
def test_carried_tokens_wait_for_the_seeds(name, mode):
    g = parse_dfg(WIDE_DIFF_AT_DEPTH_1[name].replace("; ", "\n"))
    spec = default_grid()
    spec.token_buffer_depth = 1
    cfg = map_graph(g, spec)
    for n in (24, 512):
        got, trace = assert_same(cfg, g, MachineParams(mode=mode, n_threads=n))
        assert_reference(got, g, n)
        if trace is not None:
            assert_fires_in_order(trace)


@pytest.mark.parametrize("max_diff", [3, 12])
def test_buffers_hold_the_next_threads_in_order(monkeypatch, max_diff):
    # a buffer and the held results are counts: that needs the tokens still
    # to enter each token-fed slot (arrivals in arrival order) to continue its
    # buffer's run of ids, seeds included, a plain live-in's slot to hold its
    # one standing token, and the ids fired but not yet emitted to run from
    # the emit count up to the fire count.  Back-pressure reads no per-slot
    # count: a link's buffered and arriving tokens number the producer's emit
    # count less the consumer's fire count
    skips = 0
    skip = sim.SimState._skip

    def counted(self, saved):
        nonlocal skips
        done = skip(self, saved)
        skips += done
        return done

    monkeypatch.setattr(sim.SimState, "_skip", counted)
    for seed in range(40):
        g = random_dfg(seed, max_diff)
        spec = default_grid()
        spec.token_buffer_depth = (1, 2, 16)[seed % 3]
        params = MachineParams(mode=("dr", "baseline")[seed % 2], n_threads=96 + seed)
        state = sim.SimState(map_graph(g, spec), g, params)
        while not state.done():
            state.step()
            pending = {}
            for es in state.completions.values():
                for u, t in es:
                    pending.setdefault(u.index, []).append(t)
            coming = {}  # (unit index, slot) -> arriving ids, in arrival order
            for _, es in sorted(state.arrivals.items()):
                for i, s, t in es:
                    coming.setdefault((i, s), []).append(t)
            for u in state.units:
                for s, count in enumerate(u.buffers):
                    if s not in u.fed:  # one standing token, held or arriving
                        assert count + len(coming.get((u.index, s), [])) == 1, seed
                        continue
                    later = coming.get((u.index, s), [])
                    start = u.fires + count
                    assert later == list(range(start, start + len(later))), seed
                unemitted = (list(range(u.emitted, u.emitted + u.held))
                             + sorted(pending.get(u.index, ())))
                if u.emits:
                    assert unemitted == list(range(u.fires - len(unemitted), u.fires)), seed
                for d, s, _ in u.links:
                    dst = state.units[d]
                    sent = dst.buffers[s] + len(coming.get((d, s), []))
                    assert sent == u.emitted - dst.fires, seed
    assert skips


def test_a_token_out_of_thread_order_is_refused(fixtures):
    g = load_dfg(str(fixtures / "scenario1.dfg"))
    state = sim.SimState(map_graph(g), g, MachineParams(mode="dr", n_threads=8))
    u = next(u for u in state.units if u.arity)
    sim.SimState._put(u, 0, 0)
    for tid in (0, 2):  # a repeat and a gap: the slot's next thread is 1
        with pytest.raises(sim.SimInvariantError, match="expected 1"):
            sim.SimState._put(u, 0, tid)
    sim.SimState._put(u, 0, 1)
    assert u.buffers[0] == 2


NON_FINITE_LATE = """
node 0 const 2.0
node 1 fmul
edge 0 1 0
back 1 1 1 1
livein x 1 1 1.0
node 2 const 1
node 3 and
edge 1 3 0
edge 2 3 1
liveout 3
"""


@pytest.mark.parametrize("mode", ["baseline", "dr"])
def test_fast_forward_raises_the_first_exec_error(mode):
    # thread t carries 2.0 ** (t + 1): inf from thread 1023, where 'and' refuses
    g = parse_dfg(NON_FINITE_LATE)
    cfg = map_graph(g)
    with pytest.raises(ExecError) as ref:
        reference_execute(g, 2048)
    params = MachineParams(mode=mode, n_threads=2048)
    raised = []
    for trace in (None, io.StringIO()):
        with pytest.raises(ExecError) as exc:
            sim.simulate(cfg, g, params, trace=trace)
        raised.append((exc.value.code, str(exc.value)))
    assert raised[0] == raised[1] == (ref.value.code, str(ref.value))
    assert raised[0][0] == "non-finite" and "inf" in raised[0][1]


def test_fast_forward_engages_untraced_only(fixtures, monkeypatch):
    # an exactness test alone would pass a detector that never fires
    g = load_dfg(str(fixtures / "accumulator.dfg"))
    cfg = map_graph(g)
    steps = 0
    step = sim.SimState.step

    def counted(self):
        nonlocal steps
        steps += 1
        step(self)

    monkeypatch.setattr(sim.SimState, "step", counted)
    params = MachineParams(mode="baseline", n_threads=4096)
    rep = sim.simulate(cfg, g, params)
    assert rep.total_cycles == 53_239 and steps < 1_000
    steps = 0

    class Discard:
        def write(self, text):
            pass

    traced = sim.simulate(cfg, g, params, trace=Discard())
    assert traced.to_json() == rep.to_json() and steps == rep.total_cycles


# two accumulators that share no node, an add (alu) and an fadd (fpu), so
# they repeat at different rates; the second form feeds each from its own
# load, and one outstanding load lets them contend for memory
TWO_RECURRENCES = """
node 0 const 1
node 1 add
edge 0 1 0
back 1 1 1 1
livein a 1 1 0
node 2 const 0.5
node 3 fadd
edge 2 3 0
back 3 3 1 1
livein b 3 1 0.0
liveout 1
liveout 3
"""
TWO_LOADED_RECURRENCES = """
node 0 const 0
node 1 load
node 2 add
edge 0 1 0
edge 1 2 0
back 2 2 1 1
livein a 2 1 0
node 3 const 1
node 4 load
node 5 fadd
edge 3 4 0
edge 4 5 0
back 5 5 1 1
livein b 5 1 0.0
mem 0 1
mem 1 0.5
liveout 2
liveout 5
"""


@pytest.mark.parametrize("mode", ["baseline", "dr"])
@pytest.mark.parametrize("text, cap", [(TWO_RECURRENCES, None), (TWO_LOADED_RECURRENCES, 1)],
                         ids=["independent", "load-capped"])
def test_fast_forward_skips_each_component_at_its_own_rate(monkeypatch, mode, text, cap):
    g = parse_dfg(text)
    cfg = map_graph(g)
    steps = 0
    step = sim.SimState.step

    def counted(self):
        nonlocal steps
        steps += 1
        step(self)

    monkeypatch.setattr(sim.SimState, "step", counted)
    params = MachineParams(mode=mode, n_threads=1024, mem_max_outstanding=cap)
    rep = sim.simulate(cfg, g, params)
    assert steps < 1_000
    assert sim.simulate(cfg, g, params, trace=Discard()).to_json() == rep.to_json()


def test_fast_forward_ends_below_the_thread_limit(fixtures):
    # a skip that ended at thread n would carry a mid-stall unit there: fed
    # by a plain live-in's standing token it would be credited stalls it never
    # has, since no unit stalls (or fires) once it has fired n threads
    for path in sorted(fixtures.glob("*.dfg")):
        g = load_dfg(str(path))
        for depth in (1, 2, 3, 16):
            spec = default_grid()
            spec.token_buffer_depth = depth
            cfg = map_graph(g, spec)
            for mode in ("baseline", "dr"):
                for n in (64, 100, 130, 200):
                    for mem_latency in (7, 20):
                        params = MachineParams(mode=mode, n_threads=n, mem_latency=mem_latency)
                        assert (sim.simulate(cfg, g, params).to_json()
                                == sim.simulate(cfg, g, params, trace=Discard()).to_json()), (
                            path.name, depth, mode, n, mem_latency)


def test_every_fixture_skip_matches_stepping(monkeypatch, fixtures):
    # the points above, each skip compared with a copy stepped to its cycle:
    # 562 skips; a bound one thread too loose gives 20 mismatches here
    tally = skip_oracle.install(monkeypatch)
    for path in sorted(fixtures.glob("*.dfg")):
        g = load_dfg(str(path))
        for depth in (1, 2, 3, 16):
            spec = default_grid()
            spec.token_buffer_depth = depth
            cfg = map_graph(g, spec)
            for mode in ("baseline", "dr"):
                for n in (64, 100, 130, 200):
                    for mem_latency in (7, 20):
                        sim.simulate(cfg, g, MachineParams(mode=mode, n_threads=n,
                                                           mem_latency=mem_latency))
    assert tally.skips > 500
    assert tally.mismatches == []


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.sampled_from(["baseline", "dr"]),
       st.integers(min_value=64, max_value=400),
       st.sampled_from([3, 12]),
       st.sampled_from([None, 1, 2, 3]),
       st.sampled_from([16, 1, 2, 3]),
       st.integers(min_value=1, max_value=24),
       st.integers(min_value=0, max_value=12))
def test_random_skips_match_stepping(seed, mode, n, max_diff, cap, depth, mem_latency,
                                     spill_latency):
    g = random_dfg(seed, max_diff)
    spec = default_grid()
    spec.token_buffer_depth = depth
    params = MachineParams(mode=mode, n_threads=n, mem_max_outstanding=cap,
                           mem_latency=mem_latency, spill_latency=spill_latency)
    with pytest.MonkeyPatch.context() as mp:
        tally = skip_oracle.install(mp)
        try:
            sim.simulate(map_graph(g, spec), g, params)
        except ExecError:
            pass  # the skips before it are still checked
    assert tally.mismatches == []


def test_fast_forward_step_ledger(monkeypatch, fixtures):
    # the untraced steps of every fixture, both modes, at four thread counts:
    # repeat detection that finds fewer or later repeats shows up as more
    # steps, and one that samples more often as more signatures.  15,348
    # steps and 4,517 signatures are the totals with Nivasch's stack
    steps = signatures = 0
    step, signature = sim.SimState.step, sim.SimState._signature

    def counted(self):
        nonlocal steps
        steps += 1
        step(self)

    def built(self):
        nonlocal signatures
        signatures += 1
        return signature(self)

    monkeypatch.setattr(sim.SimState, "step", counted)
    monkeypatch.setattr(sim.SimState, "_signature", built)
    for path in sorted(fixtures.glob("*.dfg")) + sorted(fixtures.glob("suite/*.dfg")):
        g = load_dfg(str(path))
        cfg = map_graph(g)
        for mode in ("baseline", "dr"):
            for n in (64, 128, 512, 4096):
                sim.simulate(cfg, g, MachineParams(mode=mode, n_threads=n))
    assert steps <= 15_348
    assert signatures <= 4_517


def test_fast_forward_watches_each_stretch_between_skips(monkeypatch):
    # the step budget starts over after every skip: a run that skips once
    # and takes long to repeat again still gets its second and third skips
    g = random_dfg(33)
    steps = 0
    step = sim.SimState.step

    def counted(self):
        nonlocal steps
        steps += 1
        step(self)

    monkeypatch.setattr(sim.SimState, "step", counted)
    rep = sim.simulate(map_graph(g), g, MachineParams(mode="baseline", n_threads=20_000))
    assert rep.total_cycles == 119_813
    assert steps < 10_000


def test_fire_log_starts_at_the_stack_bottom(monkeypatch, fixtures):
    # _watch clears the fire log when it pushes onto an empty stack, so the
    # log holds no fire below the bottom entry's position, which no skip reads
    bottoms = 0
    step = sim.SimState.step

    def checked(self):
        nonlocal bottoms
        step(self)
        if self._log is not None and self._stack:
            assert self._stack[0][-1] == 0
            bottoms += 1

    monkeypatch.setattr(sim.SimState, "step", checked)
    runs = [(random_dfg(33), "baseline", 20_000)]
    for path in sorted(fixtures.glob("*.dfg")):
        runs += [(load_dfg(str(path)), mode, 512) for mode in ("baseline", "dr")]
    for g, mode, n in runs:
        sim.simulate(map_graph(g), g, MachineParams(mode=mode, n_threads=n))
    assert bottoms


@pytest.mark.parametrize("mode", ["baseline", "dr"])
@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.dfg")))
def test_first_repeat_is_found_within_one_period(monkeypatch, name, mode):
    # the run first repeats at step b, lam steps after the state's first
    # sample; the stack still holds the least state of that period when it
    # comes round again, so the first skip is tried by step b + lam
    steps, seen, repeat, tried = 0, {}, None, []
    watch, skip = sim.SimState._watch, sim.SimState._skip

    def watched(self):
        nonlocal steps, repeat
        steps += 1
        if repeat is None and self._missing != self._sampled:  # a sampled step
            key = repr(self._signature())
            if key in seen:
                repeat = steps, steps - seen[key]
            seen[key] = steps
        watch(self)

    def skipped(self, saved):
        tried.append(steps)
        return skip(self, saved)

    monkeypatch.setattr(sim.SimState, "_watch", watched)
    monkeypatch.setattr(sim.SimState, "_skip", skipped)
    g = load_dfg(str(FIXTURES / name))
    sim.simulate(map_graph(g), g, MachineParams(mode=mode, n_threads=512))
    b, lam = repeat
    assert b <= tried[0] <= b + lam


SEEDED_SELF_LOOP = """
node 0 const 0
node 1 load
node 2 cmp
edge 0 1 0
edge 1 2 1
back 2 2 0 3
livein s 2 0 -8 -9 -9
mem 0 7
node 3 const 5
liveout 2
"""


@pytest.mark.parametrize("mode", ["baseline", "dr"])
def test_fast_forward_keeps_results_a_seeded_slot_will_read(mode):
    # the unconnected const makes every cycle a step, so the run repeats while
    # node 2 still holds a seed; no period may be skipped before node 2 has
    # fired past its diff, and the drop every 64 periods must keep the
    # results a later period reads
    g = parse_dfg(SEEDED_SELF_LOOP)
    cfg = map_graph(g)
    params = MachineParams(mode=mode, n_threads=1500, mem_max_outstanding=1)
    want = sim.simulate(cfg, g, params, trace=Discard()).to_json()
    assert sim.simulate(cfg, g, params).to_json() == want


# one capped load issues a thread every mem_latency cycles, so the run repeats
# from its first periods on, while node 2 still reads its eight seeds
SLOW_WIDE_SEED = """
node 0 const 0
node 1 load
edge 0 1 0
node 2 add
edge 1 2 0
back 2 2 1 8
livein s 2 1 1 2 3 4 5 6 7 8
mem 0 3
liveout 2
"""


@pytest.mark.parametrize("mode", ["baseline", "dr"])
def test_fast_forward_waits_until_a_seeded_unit_passes_its_diff(mode):
    # the replay reads thread t's carried operand at t - diff of its
    # producer's row; below the diff that index is negative and a Python list
    # would read the row's end, so no period is skipped until node 2 has fired
    # eight threads
    g = parse_dfg(SLOW_WIDE_SEED)
    spec = default_grid()
    spec.token_buffer_depth = 16
    cfg = map_graph(g, spec)
    for n in (64, 300):
        params = MachineParams(mode=mode, n_threads=n, mem_max_outstanding=1)
        rep = sim.simulate(cfg, g, params)
        assert rep.to_json() == sim.simulate(cfg, g, params, trace=Discard()).to_json()
        assert [row[2] for row in rep.live_out] == [row[2] for row in reference_execute(g, n)]


# a const's row is filled when the run starts and a fast-forward never replays
# its fires; each graph reads those results another way
CONST_READERS = {
    "const-live-out": """
node 0 const 7
node 1 const 1
node 2 add
edge 1 2 0
back 2 2 1 1
livein x 2 1 0
liveout 0
liveout 2
""",
    "const-in-both-slots": """
node 0 const 3
node 1 mul
edge 0 1 0
edge 0 1 1
node 2 add
edge 1 2 0
back 2 2 1 1
livein x 2 1 0
liveout 2
""",
    "const-beside-seeded-back-edge": """
node 0 const 2
node 1 sub
edge 0 1 0
node 2 mul
edge 1 2 0
edge 0 2 1
back 2 1 1 2
livein s 1 1 5 -4
liveout 1
liveout 2
""",
}


@pytest.mark.parametrize("mode", ["baseline", "dr"])
@pytest.mark.parametrize("name", CONST_READERS)
def test_fast_forward_fills_const_results(monkeypatch, name, mode):
    g = parse_dfg(CONST_READERS[name])
    cfg = map_graph(g)
    steps = 0
    step = sim.SimState.step

    def counted(self):
        nonlocal steps
        steps += 1
        step(self)

    for n in (512, 4096):
        params = MachineParams(mode=mode, n_threads=n)
        want = outcome(oracle.simulate, cfg, g, params, False)[0]
        monkeypatch.setattr(sim.SimState, "step", counted)
        steps = 0
        got = outcome(sim.simulate, cfg, g, params, False)[0]
        assert steps < 1_000, n
        monkeypatch.undo()
        assert got == want == outcome(sim.simulate, cfg, g, params, True)[0], n


def test_deadlock_cycle_and_trace_match_oracle():
    g = parse_dfg("node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 1\nliveout 1")
    cfg = map_graph(g)
    for mode in ("baseline", "dr"):
        params = MachineParams(mode=mode, n_threads=4)
        got, trace = outcome(sim.simulate, cfg, g, params, True)
        assert got[:2] == ("deadlock", 7)
        assert (got, trace) == outcome(oracle.simulate, cfg, g, params, True)
        assert "cycle=7 " in trace  # the raising cycle's stall lines are written


def test_finished_simulation_leaves_no_reference_cycles(fixtures):
    # units name each other by index, so a finished run is freed by reference
    # counting alone instead of piling up until a full collection
    g = load_dfg(str(fixtures / "scenario5.dfg"))
    cfg = map_graph(g)
    gc.collect()
    gc.disable()
    try:
        sim.simulate(cfg, g, MachineParams(mode="dr", n_threads=32, mem_max_outstanding=2))
        assert gc.collect() == 0
    finally:
        gc.enable()
