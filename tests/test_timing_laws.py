"""Timing laws: monotonic rules any correct machine of this kind obeys.

The reference interpreter checks values only, and ``_stepper_oracle`` shares
the kernel's timing rules, so a timing rule wrong in both would pass every
other check.  These laws hold whatever the rules are, as long as each is
correct: a run never ends sooner when it has more threads, a slower spill
or slower hops, nor later when its token buffers are deeper.  Each property
draws a ``random_dfg`` graph and a mode.  Two rules that look like laws are
not, and are pinned as examples with their numbers.

The II oracle reads the simulator's own arcs, so what checks its answer
independently is a bound: wherever ``steady_state_ii`` answers, the measured
interval is never below it.  It can read above it; a pinned example shows
that gap.
"""

from functools import cache

from hypothesis import given, settings, strategies as st

from loopgrid.grid import GridSpec, default_grid, map_graph
from loopgrid.ir import load_dfg
from loopgrid.sim import IIOracleError, MachineParams, simulate, steady_state_ii

import _stepper_oracle as oracle
from _random_graphs import random_dfg
from conftest import fixture_path

SEEDS = st.integers(min_value=0, max_value=10_000)
MODES = st.sampled_from(["baseline", "dr"])
THREADS = st.sampled_from([5, 40, 130])


def cycles(seed, mode, n, hop=1, depth=16, **params):
    spec = GridSpec(unit_map=default_grid().unit_map, hop_latency=hop,
                    token_buffer_depth=depth)
    g = random_dfg(seed)
    return simulate(map_graph(g, spec), g,
                    MachineParams(mode=mode, n_threads=n, **params)).total_cycles


def ordered(values):
    """Two draws from ``values``, the smaller first."""
    return st.lists(values, min_size=2, max_size=2).map(sorted)


@settings(max_examples=60, deadline=None)
@given(SEEDS, MODES, ordered(st.integers(min_value=1, max_value=200)))
def test_more_threads_never_finish_sooner(seed, mode, threads):
    fewer, more = threads
    assert cycles(seed, mode, fewer) <= cycles(seed, mode, more)


@settings(max_examples=60, deadline=None)
@given(SEEDS, MODES, THREADS, ordered(st.integers(min_value=0, max_value=13)))
def test_a_slower_spill_never_finishes_sooner(seed, mode, n, spills):
    fast, slow = spills
    assert cycles(seed, mode, n, spill_latency=fast) <= cycles(seed, mode, n, spill_latency=slow)


@settings(max_examples=60, deadline=None)
@given(SEEDS, MODES, THREADS, ordered(st.integers(min_value=0, max_value=3)))
def test_slower_hops_never_finish_sooner(seed, mode, n, hops):
    fast, slow = hops
    assert cycles(seed, mode, n, hop=fast) <= cycles(seed, mode, n, hop=slow)


@settings(max_examples=60, deadline=None)
@given(SEEDS, MODES, THREADS, ordered(st.sampled_from([1, 2, 3, 4, 8, 16])))
def test_deeper_buffers_never_finish_later(seed, mode, n, depths):
    shallow, deep = depths
    assert cycles(seed, mode, n, depth=deep) <= cycles(seed, mode, n, depth=shallow)


def test_a_longer_memory_latency_can_finish_sooner():
    # not a law: the live-out is load 3, and a run ends at its last
    # completion.  Its consumer, node 5, is a spilled diff-3 recurrence.  At
    # 19 the load issues every thread before node 5's back-pressure holds a
    # result back; at 17 it stalls 74 cycles behind it.  The stepper agrees.
    for mem, total in ((17, 136), (19, 64)):
        g = random_dfg(11)
        cfg = map_graph(g)
        p = MachineParams(mode="baseline", n_threads=40, mem_latency=mem)
        assert simulate(cfg, g, p).total_cycles == oracle.simulate(cfg, g, p).total_cycles == total


def test_dr_can_be_slower_than_baseline_at_a_cheap_spill():
    # not a law: at spill 0 the store-to-and carry (6 -> 5) re-enters from
    # the port in 5 cycles, while dr routes it through an update node in 9
    g = random_dfg(21)
    cfg = map_graph(g)
    got = {mode: simulate(cfg, g, MachineParams(mode=mode, n_threads=90, spill_latency=0))
           .total_cycles for mode in ("baseline", "dr")}
    assert got == {"baseline": 494, "dr": 670}


@cache
def oracle_seeds() -> tuple[int, ...]:
    """The ``random_dfg`` seeds below 400 whose graph the II oracle answers."""
    seeds = []
    for seed in range(400):
        g = random_dfg(seed)
        try:
            steady_state_ii(map_graph(g), g, MachineParams(mode="dr", n_threads=1))
        except IIOracleError:
            continue
        seeds.append(seed)
    return tuple(seeds)


@settings(max_examples=60, deadline=None)
@given(st.data(), MODES, st.integers(min_value=0, max_value=2), st.sampled_from([1, 2, 4, 16]),
       st.sampled_from([(3, 0), (20, 8), (40, 2)]))
def test_measured_ii_never_beats_the_oracle(data, mode, hop, depth, mem_spill):
    seed = data.draw(st.sampled_from(oracle_seeds()), label="seed")
    mem, spill = mem_spill
    g = random_dfg(seed)
    cfg = map_graph(g, GridSpec(unit_map=default_grid().unit_map, hop_latency=hop,
                                token_buffer_depth=depth))
    p = MachineParams(mode=mode, n_threads=256, mem_latency=mem, spill_latency=spill)
    assert simulate(cfg, g, p).measured_ii >= steady_state_ii(cfg, g, p)


def test_measured_ii_can_exceed_the_oracle():
    # the recurrence bound is 2, but the load feeding the add holds its next
    # fire while a completed result waits for room, so its refill (memory
    # latency plus a 3-cycle route) can outlast the 16 threads the add's
    # buffer holds, 32 cycles at II 2.  The kernel and the stepper agree.
    g = load_dfg(fixture_path("scenario4.dfg"))
    cfg = map_graph(g)
    for mem, issued in ((31, 514), (33, 522)):  # cycles over the last 255 issues
        p = MachineParams(mode="dr", n_threads=512, mem_latency=mem)
        assert steady_state_ii(cfg, g, p) == 2
        assert simulate(cfg, g, p).measured_ii == issued / 255
    p = MachineParams(mode="dr", n_threads=200, mem_latency=33)
    assert simulate(cfg, g, p).total_cycles == oracle.simulate(cfg, g, p).total_cycles == 446
