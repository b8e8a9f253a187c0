"""The event-driven kernel against the cycle-by-cycle stepper it replaced.

``_stepper_oracle`` walks every unit on every cycle, so any wake-up, skip
or lazy stall credit the kernel gets wrong shows up here as a different
report, a different text trace or a different deadlock cycle.
"""

import gc
import io

import pytest
from hypothesis import given, settings, strategies as st

import _stepper_oracle as oracle
from _random_graphs import random_dfg
from loopgrid import sim
from loopgrid.grid import default_grid, map_graph
from loopgrid.ir import load_dfg, parse_dfg
from loopgrid.sim import DeadlockError, MachineParams

TRACED_UP_TO = 64  # thread counts above this compare reports only


def outcome(simulate, cfg, g, params, traced):
    """Report JSON (or the deadlock cycle and message) and the text trace."""
    buf = io.StringIO() if traced else None
    try:
        got = simulate(cfg, g, params, trace=buf).to_json()
    except DeadlockError as exc:
        got = ("deadlock", exc.cycle, str(exc))
    return got, buf.getvalue() if traced else None


def assert_same(cfg, g, params, label=None):
    traced = params.n_threads <= TRACED_UP_TO
    want = outcome(oracle.simulate, cfg, g, params, traced)
    assert outcome(sim.simulate, cfg, g, params, traced) == want, label
    if traced:  # the untraced path visits fewer units; same report
        assert outcome(sim.simulate, cfg, g, params, False)[0] == want[0], label


def fixture_graphs(fixtures):
    for path in sorted(fixtures.glob("*.dfg")):
        g = load_dfg(str(path))
        yield path.name, g, map_graph(g)


@pytest.mark.parametrize("mode", ["baseline", "dr"])
def test_fixtures_match_oracle(fixtures, mode):
    for name, g, cfg in fixture_graphs(fixtures):
        for n in (1, 7, 8, 64, 512):
            assert_same(cfg, g, MachineParams(mode=mode, n_threads=n), (name, n))


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
    # delivery; dropping back-edge seeds makes deadlocks
    g = random_dfg(seed)
    if unseed:
        seeded = {(e.dst, e.slot) for e in g.edges if e.kind == "back"}
        g.live_in = {k: lv for k, lv in g.live_in.items() if (lv.node, lv.slot) not in seeded}
    spec = default_grid()
    spec.token_buffer_depth, spec.hop_latency = depth, hop
    params = MachineParams(mode=mode, n_threads=n, spill_latency=seed % 9)
    assert_same(map_graph(g, spec), g, params)


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
