"""Cycle-level simulator: retagging, steady-state rates, and exactness."""

import pytest
from hypothesis import given, settings, strategies as st

from loopgrid.grid import map_graph
from loopgrid.ir import load_dfg, parse_dfg, reference_execute
from loopgrid.sim import (
    DeadlockError,
    IIOracleError,
    MachineParams,
    Token,
    ildr_retag,
    simulate,
    steady_state_ii,
)

from _random_graphs import random_dfg


def run(fixtures, name, mode, n, **kw):
    g = load_dfg(str(fixtures / name))
    cfg = map_graph(g)
    return g, cfg, simulate(cfg, g, MachineParams(mode=mode, n_threads=n, **kw))


# ---------------------------------------------------------------- retagging

def test_retag_shifts_thread_id_keeps_value():
    assert ildr_retag(Token(0, 41), 1) == Token(1, 41)
    assert ildr_retag(Token(2, 5), 3) == Token(5, 5)


def test_params_validation():
    with pytest.raises(ValueError):
        MachineParams(mode="turbo", n_threads=4)
    with pytest.raises(ValueError):
        MachineParams(mode="dr", n_threads=0)
    for bad in (0, -1):  # would deadlock: no load could ever issue
        with pytest.raises(ValueError):
            MachineParams(mode="dr", n_threads=4, mem_max_outstanding=bad)
    assert MachineParams(mem_max_outstanding=1).mem_max_outstanding == 1


# ---------------------------------------------------------------- cadence

def test_accumulator_issue_cadence(fixtures):
    # result retagged one cycle after the 1-cycle add: one issue every 2 cycles
    g, cfg, rep = run(fixtures, "scenario1.dfg", "dr", 64)
    assert rep.measured_ii == 2.0
    assert steady_state_ii(cfg, g, MachineParams(mode="dr", n_threads=64)) == 2


def test_fpu_accumulator_cadence(fixtures):
    # 4-cycle unit + 1-cycle carry update
    g, cfg, rep = run(fixtures, "scenario1f.dfg", "dr", 64)
    assert rep.measured_ii == 5.0


def test_baseline_pays_spill_round_trip(fixtures):
    # unit latency + route back in from the port + spill cost
    g, cfg, rep = run(fixtures, "scenario1.dfg", "baseline", 64)
    dep_consumer = 1
    expect = (
        cfg.spec.latencies["alu"]
        + cfg.reinjection_latency(dep_consumer)
        + 8  # default spill latency
    )
    assert rep.measured_ii == float(expect) == 13.0


def test_spill_latency_shifts_baseline_only(fixtures):
    for spill in (4, 8, 16):
        g, cfg, rep = run(fixtures, "scenario1.dfg", "baseline", 64,
                          spill_latency=spill)
        assert rep.measured_ii == 13.0 - 8 + spill
        g, cfg, rep2 = run(fixtures, "scenario1.dfg", "dr", 64,
                           spill_latency=spill)
        assert rep2.measured_ii == 2.0


def test_memory_latency_hidden_from_steady_state(fixtures):
    # loads pipeline, so the 20-cycle latency shows up once, not per thread
    g, cfg, rep = run(fixtures, "scenario4.dfg", "dr", 64)
    assert rep.measured_ii == 2.0
    g, cfg, slow = run(fixtures, "scenario4.dfg", "dr", 64, mem_latency=40)
    assert slow.measured_ii == 2.0
    assert slow.total_cycles > rep.total_cycles  # fill time still grows


def test_mem_max_outstanding_throttles(fixtures):
    # 8 loads in flight over a 20-cycle latency: throughput tends to 8/20,
    # so the consumer's issue rate degrades toward 2.5 as threads grow
    g, cfg, rep = run(fixtures, "scenario4.dfg", "dr", 512,
                      mem_max_outstanding=8)
    _, _, free = run(fixtures, "scenario4.dfg", "dr", 512)
    assert free.measured_ii == 2.0
    assert 2.0 < rep.measured_ii <= 20 / 8
    assert rep.total_cycles > free.total_cycles


def test_dropped_retags_equal_diff(fixtures):
    for name, ndeps in [("scenario1.dfg", 1), ("scenario3.dfg", 1),
                        ("scenario5.dfg", 3)]:
        g = load_dfg(str(fixtures / name))
        diffs = sum(e.diff for e in g.edges if e.kind == "back")
        for mode in ("dr", "baseline"):
            _, _, rep = run(fixtures, name, mode, 16)
            assert rep.dropped_retags == diffs, (name, mode)


# ---------------------------------------------------------------- exactness

@pytest.mark.parametrize("mode", ["dr", "baseline"])
def test_single_thread_matches_reference(fixtures, mode):
    for path in sorted(fixtures.glob("*.dfg")):
        g = load_dfg(str(path))
        cfg = map_graph(g)
        rep = simulate(cfg, g, MachineParams(mode=mode, n_threads=1))
        assert rep.live_out == reference_execute(g, 1), path.name


@pytest.mark.parametrize("mode", ["dr", "baseline"])
def test_fixtures_match_reference_at_16_threads(fixtures, mode):
    for path in sorted(fixtures.glob("*.dfg")):
        g = load_dfg(str(path))
        cfg = map_graph(g)
        rep = simulate(cfg, g, MachineParams(mode=mode, n_threads=16))
        assert rep.live_out == reference_execute(g, 16), path.name


def test_modes_agree_on_values_not_cycles(fixtures):
    g, cfg, dr = run(fixtures, "scenario2.dfg", "dr", 32)
    _, _, base = run(fixtures, "scenario2.dfg", "baseline", 32)
    assert dr.live_out == base.live_out
    assert dr.total_cycles < base.total_cycles


def test_simulation_deterministic(fixtures):
    a = run(fixtures, "scenario3.dfg", "dr", 32)[2]
    b = run(fixtures, "scenario3.dfg", "dr", 32)[2]
    assert a.to_json() == b.to_json()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["dr", "baseline"]))
def test_random_graphs_match_reference(seed, mode):
    g = random_dfg(seed)
    cfg = map_graph(g)
    rep = simulate(cfg, g, MachineParams(mode=mode, n_threads=6))
    assert rep.live_out == reference_execute(g, 6)


# ---------------------------------------------------------------- failure modes

def test_unseeded_back_edge_deadlocks():
    g = parse_dfg(
        "node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 1\nliveout 1")
    cfg = map_graph(g)
    with pytest.raises(DeadlockError):
        simulate(cfg, g, MachineParams(mode="dr", n_threads=4))


def test_ii_oracle_refuses_unsupported_patterns(fixtures):
    for name in ("scenario3.dfg", "scenario5.dfg"):
        g = load_dfg(str(fixtures / name))
        cfg = map_graph(g)
        with pytest.raises(IIOracleError) as exc:
            steady_state_ii(cfg, g, MachineParams(mode="dr", n_threads=64))
        assert exc.value.code == "unsupported-pattern"


def test_ii_oracle_matches_measurement_where_supported(fixtures):
    for name in ("scenario1.dfg", "scenario1f.dfg", "scenario2.dfg",
                 "scenario4.dfg", "wrf_nomem.dfg", "wrf_mem.dfg"):
        g = load_dfg(str(fixtures / name))
        cfg = map_graph(g)
        for mode in ("dr", "baseline"):
            p = MachineParams(mode=mode, n_threads=128)
            rep = simulate(cfg, g, p)
            assert rep.measured_ii == float(steady_state_ii(cfg, g, p)), (
                name, mode)
