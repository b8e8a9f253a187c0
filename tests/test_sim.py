"""Cycle-level simulator: retagging, steady-state rates, and exactness."""

import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from loopgrid.analysis import describe_deps, find_deps
from loopgrid.grid import GridConfig, GridSpec, MapError, default_grid, map_graph
from loopgrid.ir import (DfgError, Edge, ExecError, LiveIn, Node, _check_bindings, load_dfg,
                         parse_dfg, reference_execute, validate)
from loopgrid.sim import (
    DeadlockError,
    IIOracleError,
    MachineParams,
    SimState,
    simulate,
    steady_state_ii,
)

from _random_graphs import random_dfg
from _stepper_oracle import Token, ildr_retag
from conftest import FIXTURES, fixture_path


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
    assert MachineParams(mem_max_outstanding=None).mem_max_outstanding is None
    # a float spill latency used to run and print fractional cycles, and a
    # float thread count to deadlock
    for field in ("n_threads", "mem_latency", "spill_latency", "mem_max_outstanding"):
        for bad in (8.5, 2.0, True, "4"):
            with pytest.raises(ValueError, match=field):
                MachineParams(mode="dr", **{field: bad})
    with pytest.raises(ValueError, match="n_threads"):
        MachineParams(n_threads=None)


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


def same_rows(got, want) -> bool:
    """Row for row the same keys and equal values, a nan equal to itself
    (an fmul that overflows to inf, less itself, is nan in both)."""
    return len(got) == len(want) and all(
        a.keys() == b.keys() and all(x == b[k] or (x != x and b[k] != b[k]) for k, x in a.items())
        for a, b in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["dr", "baseline"]),
       st.sampled_from([6, 64, 200]))  # 64 threads and more may fast-forward
@example(seed=5764, mode="dr", n=64)  # live-outs inf and nan from thread 28 on
def test_random_graphs_match_reference(seed, mode, n):
    g = random_dfg(seed)
    cfg = map_graph(g)
    rep = simulate(cfg, g, MachineParams(mode=mode, n_threads=n))
    ref = reference_execute(g, n)
    assert same_rows(rep.live_out, ref)
    assert same_rows(rep.to_json()["live_out"],
                     [{str(k): v for k, v in sorted(row.items())} for row in ref])


def test_live_out_is_rebuilt_from_the_columns_on_each_access(fixtures):
    g, _, rep = run(fixtures, "scenario3.dfg", "dr", 100)  # two live-outs
    first = rep.live_out
    first[0].clear()
    assert rep.live_out == reference_execute(g, 100)
    assert list(rep.live_columns) == list(dict.fromkeys(g.live_out))
    assert all(len(col) == 100 for col in rep.live_columns.values())


def test_report_memory_is_bounded(fixtures):
    # the report keeps the live-out rows as columns; with one dict per thread
    # this run peaked at 6.4 MB, with the columns at 1.7 MB
    g = load_dfg(str(fixtures / "wrf_mem.dfg"))
    cfg = map_graph(g)
    tracemalloc.start()
    try:
        rep = simulate(cfg, g, MachineParams(mode="dr", n_threads=20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.live_out == reference_execute(g, 20_000)
    assert peak < 3_000_000


def drop_livein(g, k, seed=False):
    """Delete the k-th live-in (mod their count) that no back edge shares a
    slot with, leaving that slot unfed, or with ``seed`` the k-th that seeds
    a back edge; returns its name, or None if none."""
    seeded = {(e.dst, e.slot) for e in g.back_edges()}
    names = [name for name, lv in g.live_in.items() if ((lv.node, lv.slot) in seeded) == seed]
    if not names:
        return None
    name = names[k % len(names)]
    del g.live_in[name]
    return name


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.sampled_from(["dr", "baseline"]),
       st.integers(min_value=1, max_value=40),
       st.sampled_from([None, 1, 2, 3]),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=12),
       st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
       st.booleans())
@example(2, "dr", 1, None, 20, 8, 2, False)  # drops in2: node 3 is off every live-out path
def test_simulate_matches_reference_or_refuses(seed, mode, n, cap, mem_latency, spill, drop,
                                               seed_livein):
    # never a silent disagreement: the simulator either reproduces the
    # sequential reference or refuses the graph with a typed error
    g = random_dfg(seed)
    if drop is not None:
        drop_livein(g, drop, seed_livein)
    refused = None
    try:
        ref = reference_execute(g, n)
    except ExecError as exc:
        ref = exc.code  # no live-out list equals this
    except DfgError as exc:
        ref = refused = str(exc)  # a binding fault, refused alike below
    params = MachineParams(mode=mode, n_threads=n, mem_max_outstanding=cap,
                           mem_latency=mem_latency, spill_latency=spill)
    try:
        rep = simulate(map_graph(g), g, params)
    except (DfgError, MapError, DeadlockError) as exc:
        assert refused in (None, str(exc))
        return
    assert rep.live_out == ref


def test_unfed_slot_refused_with_typed_error():
    # node 3 (or) feeds no live-out, so without the check it never fires and
    # the run returns [{5: 3, 7: 2}] where the reference refuses the graph
    g = random_dfg(2)
    cfg = map_graph(g)
    assert drop_livein(g, 2) == "in2"
    calls = [lambda: reference_execute(g, 1), lambda: map_graph(g)] + [
        lambda mode=mode: simulate(cfg, g, MachineParams(mode=mode, n_threads=1))
        for mode in ("dr", "baseline")]
    for call in calls:
        with pytest.raises(DfgError) as exc:
            call()
        assert exc.value.code == "unfed-slot"


@pytest.mark.parametrize("seed", [298, 331])
def test_non_finite_integer_operand_is_typed(seed):
    # an fmul chain overflows to -inf by thread 512, then feeds an 'or'
    g = random_dfg(seed)
    with pytest.raises(ExecError) as ref:
        reference_execute(g, 512)
    assert ref.value.code == "non-finite"
    cfg = map_graph(g)
    for mode in ("dr", "baseline"):
        with pytest.raises(ExecError) as exc:
            simulate(cfg, g, MachineParams(mode=mode, n_threads=512))
        assert exc.value.code == "non-finite", mode


def test_unseeded_back_edge_off_live_out_paths_refused():
    # node 1 starves for want of a livein but feeds no live-out: without the
    # check the run returns [{2: 2}, {2: 2}] where the reference refuses
    g = parse_dfg("node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 1\n"
                  "node 2 add\nedge 0 2 0\nedge 0 2 1\nliveout 2")
    with pytest.raises(ExecError) as ref:
        reference_execute(g, 2)
    assert ref.value.code == "missing-livein"
    cfg = map_graph(g)
    for mode in ("dr", "baseline"):
        with pytest.raises(DfgError) as exc:
            simulate(cfg, g, MachineParams(mode=mode, n_threads=2))
        assert exc.value.code == "missing-livein", mode


# ---------------------------------------------------------------- failure modes

def test_unseeded_back_edge_deadlocks():
    g = parse_dfg(
        "node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 1\nliveout 1")
    cfg = map_graph(g)
    for mode in ("dr", "baseline"):
        with pytest.raises(DeadlockError) as exc:
            simulate(cfg, g, MachineParams(mode=mode, n_threads=4))
        # caught at the first cycle with no progress and nothing in flight
        assert exc.value.cycle == 7, mode


@pytest.mark.parametrize("feed", ["edge 0 1 2", "back 1 1 5 1", "livein z 1 7 3", "edge 0 1 -1"],
                         ids=["edge", "back", "livein", "negative"])
def test_missing_slot_refused_with_typed_error(feed):
    # parse_dfg takes any slot number; only validate would report it
    g = parse_dfg("node 0 const 1\nnode 1 add\nedge 0 1 0\nedge 0 1 1\nliveout 1")
    cfg = map_graph(g)
    g = parse_dfg(f"node 0 const 1\nnode 1 add\nedge 0 1 0\n{feed}\nliveout 1")
    for call in (lambda: simulate(cfg, g, MachineParams(mode="dr", n_threads=4)),
                 lambda: map_graph(g)):
        with pytest.raises(DfgError) as exc:
            call()
        assert exc.value.code == "arity-mismatch"


@pytest.mark.parametrize("extra", [LiveIn("z", 1, 1, (3,)), LiveIn("z", 1, 0, (3,))],
                         ids=["edge+livein", "livein+livein"])
def test_slot_fed_twice_refused_with_typed_error(extra):
    # parse_dfg refuses both; a graph built in code reaches the simulator
    g = parse_dfg("node 0 const 1\nnode 1 add\nedge 0 1 1\nlivein a 1 0 5\nliveout 1")
    cfg = map_graph(g)
    g.live_in["z"] = extra
    for call in (lambda: simulate(cfg, g, MachineParams(mode="dr", n_threads=4)),
                 lambda: map_graph(g)):
        with pytest.raises(DfgError) as exc:
            call()
        assert exc.value.code == "duplicate-slot"


@pytest.mark.parametrize("text", [
    "node 0 const 1\nnode 1 add\nedge 0 1 1\nlivein a 1 0 5\nliveout 1",
    "node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 1\nlivein a 1 1 0\nliveout 1",
], ids=["plain", "dependent"])
def test_empty_livein_refused_with_typed_error(text):
    # parse_dfg needs a value; a livein built in code without one made
    # simulate raise a bare IndexError
    g = parse_dfg(text)
    cfg = map_graph(g)
    lv = g.live_in["a"]
    g.live_in["a"] = LiveIn("a", lv.node, lv.slot, ())
    assert "livein-length" in [v.code for v in validate(g)]
    calls = [lambda: reference_execute(g, 4), lambda: map_graph(g)] + [
        lambda mode=mode: simulate(cfg, g, MachineParams(mode=mode, n_threads=4))
        for mode in ("dr", "baseline")]
    for call in calls:
        with pytest.raises(DfgError) as exc:
            call()
        assert exc.value.code == "livein-length"


def _edit_edge(g, kind, **fields):
    # the graph below has one edge of each kind into a slot 1
    g.edges = [e._replace(**fields) if e.kind == kind and e.slot == 1 else e for e in g.edges]


# parse_dfg refuses each of these; a graph built in code reaches the mapper,
# the simulator and the reference, which refuse it with the code validate
# reports
MALFORMED = {
    "intra-src": ("dangling-reference", lambda g: _edit_edge(g, "intra", src=7)),
    "back-src": ("dangling-reference", lambda g: _edit_edge(g, "back", src=9)),
    "liveout": ("dangling-reference", lambda g: setattr(g, "live_out", [9])),
    "livein-node": ("dangling-reference",
                    lambda g: g.live_in.update(s=g.live_in["s"]._replace(node=8))),
    "diff-0": ("bad-diff", lambda g: _edit_edge(g, "back", diff=0)),
    "diff-none": ("bad-diff", lambda g: _edit_edge(g, "back", diff=None)),
    "non-dense": ("non-dense-ids",
                  lambda g: setattr(g, "nodes", [*g.nodes[:2], Node(5, "add")])),
    "intra-slot-none": ("arity-mismatch", lambda g: _edit_edge(g, "intra", slot=None)),
    "back-slot-none": ("arity-mismatch", lambda g: _edit_edge(g, "back", slot=None)),
    "livein-slot-none": ("arity-mismatch",
                         lambda g: g.live_in.update(s=g.live_in["s"]._replace(slot=None))),
    "livein-node-none": ("dangling-reference",
                         lambda g: g.live_in.update(s=g.live_in["s"]._replace(node=None))),
    "duplicate-slot": ("duplicate-slot", lambda g: g.edges.append(Edge(1, 2, 1))),
}


@pytest.mark.parametrize("code, breaks", MALFORMED.values(), ids=MALFORMED)
def test_malformed_graph_built_in_code_is_refused_with_its_code(code, breaks):
    g = parse_dfg("node 0 const 1\nnode 1 add\nnode 2 add\nedge 0 1 0\nback 1 1 1 1\n"
                  "livein s 1 1 0\nedge 1 2 0\nedge 0 2 1\nliveout 2")
    cfg = map_graph(g)
    breaks(g)
    assert code in {v.code for v in validate(g)}
    calls = [lambda mode=mode: simulate(cfg, g, MachineParams(mode=mode, n_threads=4))
             for mode in ("dr", "baseline")] + [lambda: reference_execute(g, 4)]
    calls += [lambda: find_deps(g), lambda: describe_deps(g), lambda: map_graph(g)]
    for call in calls:
        with pytest.raises(DfgError) as exc:
            call()
        assert exc.value.code == code


BINDING_CODES = {"non-dense-ids", "dangling-reference", "arity-mismatch", "duplicate-slot",
                 "bad-diff", "livein-length", "unfed-slot"}
# validate's seed-count check, a whole-graph rule that shares the code livein-length
SEED_COUNT = re.compile(r"slot \S+ of node \S+ needs \S+ initial values")


def _break(g, kind, k, v):
    """Apply one MALFORMED-style breakage to ``g``: the k-th (mod their
    count) slot, diff, endpoint or live-in gets ``v``, or the k-th live-in
    goes, or an edge is added."""
    lvs = list(g.live_in.values())
    if kind == "slot" and g.edges + lvs:
        item = (g.edges + lvs)[k % len(g.edges + lvs)]
        if isinstance(item, Edge):
            g.edges[g.edges.index(item)] = item._replace(slot=v)
        else:
            g.live_in[item.name] = item._replace(slot=v)
    elif kind == "diff" and g.back_edges():
        be = g.back_edges()[k % len(g.back_edges())]
        g.edges[g.edges.index(be)] = be._replace(diff=v)
    elif kind == "endpoint":
        ends = [(i, f) for i in range(len(g.edges)) for f in ("src", "dst")]
        ends += [(lv.name, "node") for lv in lvs]
        ends += [(i, "live_out") for i in range(len(g.live_out))]
        at, field = ends[k % len(ends)]
        if field == "node":
            g.live_in[at] = g.live_in[at]._replace(node=v)
        elif field == "live_out":
            g.live_out[at] = v
        else:
            g.edges[at] = g.edges[at]._replace(**{field: v})
    elif kind == "livein-values" and lvs:
        lv = lvs[k % len(lvs)]
        g.live_in[lv.name] = lv._replace(values=tuple(range(v if v and v > 0 else 0)))
    elif kind == "drop-livein" and lvs:
        del g.live_in[lvs[k % len(lvs)].name]
    elif kind == "extra-edge":
        n = len(g.nodes)
        g.edges.append(Edge(k % n, k // n % n, v, "back", 1) if k % 2 else
                       Edge(k % n, k // n % n, v))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.lists(st.tuples(st.sampled_from(["slot", "diff", "endpoint", "livein-values",
                                           "drop-livein", "extra-edge"]),
                          st.integers(min_value=0, max_value=60),
                          st.sampled_from([None, -1, 0, 1, 2, 3, 7, 99])),
                min_size=1, max_size=2))
def test_binding_checks_cannot_drift(seed, breaks):
    # validate, _check_bindings, the simulator and the reference read one
    # walk over the binding rules, so they report the same first fault
    g = random_dfg(seed)
    cfg = map_graph(g)
    for brk in breaks:
        _break(g, *brk)
    faults = [v for v in validate(g) if v.code in BINDING_CODES
              and not SEED_COUNT.fullmatch(v.message)]
    try:
        _check_bindings(g)
    except DfgError as exc:
        assert faults and str(exc) == f"{faults[0].code}: {faults[0].message}"
        assert all(v.severity == "error" for v in faults)
        calls = [lambda: reference_execute(g, 4)] + [
            lambda mode=mode: simulate(cfg, g, MachineParams(mode=mode, n_threads=4))
            for mode in ("dr", "baseline")]
        for call in calls:
            with pytest.raises(DfgError) as other:
                call()
            assert (other.value.code, str(other.value)) == (exc.code, str(exc))
    else:
        assert faults == []


def test_empty_graph_matches_reference():
    g = parse_dfg("")
    rep = simulate(map_graph(g), g, MachineParams(mode="dr", n_threads=3))
    assert rep.live_out == reference_execute(g, 3)
    assert rep.to_json()["live_out"] == [{}, {}, {}]
    assert rep.total_cycles == 0


def test_ii_oracle_refuses_unsupported_patterns(fixtures):
    for name in ("scenario3.dfg", "scenario5.dfg"):
        g = load_dfg(str(fixtures / name))
        cfg = map_graph(g)
        with pytest.raises(IIOracleError) as exc:
            steady_state_ii(cfg, g, MachineParams(mode="dr", n_threads=64))
        assert exc.value.code == "unsupported-pattern"


def test_ii_oracle_refuses_carry_distance_above_one():
    # three threads circulate a diff-3 recurrence at once; the closed form
    # (13 baseline, 2 dr) would overstate the measured II (4.33, 1.0)
    g = parse_dfg("node 0 const 1\nnode 1 add\nedge 0 1 1\nback 1 1 0 3\n"
                  "livein c 1 0 0 0 0\nliveout 1")
    cfg = map_graph(g)
    for mode in ("dr", "baseline"):
        with pytest.raises(IIOracleError) as exc:
            steady_state_ii(cfg, g, MachineParams(mode=mode, n_threads=512))
        assert exc.value.code == "unsupported-pattern"


def test_ii_oracle_refuses_what_simulate_refuses():
    # the unseeded back edge feeds no live-out, so simulate cannot run the
    # graph; the oracle reads the arcs SimState builds and refuses it the same
    # way, where summing the path alone would answer 2
    g = parse_dfg("node 0 const 1\nnode 1 add\nedge 0 1 1\nback 1 1 0 1\n"
                  "node 2 const 5\nnode 3 add\nedge 2 3 0\nedge 2 3 1\nliveout 3")
    cfg = map_graph(g)
    p = MachineParams(mode="dr", n_threads=8)
    with pytest.raises(DfgError) as sim_exc:
        simulate(cfg, g, p)
    with pytest.raises(DfgError) as exc:
        steady_state_ii(cfg, g, p)
    assert exc.value.code == sim_exc.value.code == "missing-livein"
    assert str(exc.value) == str(sim_exc.value)


def test_a_back_edge_with_no_attachment_spills_in_dr(fixtures):
    # every back edge has one carrier: with no feedback attachment the dr run
    # spills it, as baseline does, and the oracle reads that spill
    g = load_dfg(str(fixtures / "scenario1.dfg"))
    mapped = map_graph(g)
    cfg = GridConfig(mapped.spec, mapped.placement, mapped.routes, [])
    assert cfg.baseline_only == [e.key() for e in g.back_edges()]
    dr = simulate(cfg, g, MachineParams(mode="dr", n_threads=64)).to_json()
    base = simulate(mapped, g, MachineParams(mode="baseline", n_threads=64)).to_json()
    assert {**dr, "mode": "baseline"} == base
    for mode in ("dr", "baseline"):
        assert steady_state_ii(cfg, g, MachineParams(mode=mode, n_threads=64)) == 13


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(p.name for p in FIXTURES.glob("*.dfg")))
       | st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["baseline", "dr"]), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=13))
def test_every_back_edge_has_one_carrier(graph, mode, hop, spill):
    # dr feeds back exactly the mapping's attachments; every other back edge
    # spills, in either mode
    g = load_dfg(fixture_path(graph)) if isinstance(graph, str) else random_dfg(graph)
    try:
        cfg = map_graph(g, GridSpec(unit_map=default_grid().unit_map, hop_latency=hop))
    except MapError:
        return
    units = SimState(cfg, g, MachineParams(mode=mode, n_threads=8, spill_latency=spill)).units
    index = {u.node.id: u.index for u in units}
    fed = cfg.feedback if mode == "dr" else []
    want = [(f.producer, index[f.consumer], f.consumer_slot, f.diff, f.feedback_latency)
            for f in fed]
    want += [(e.src, index[e.dst], e.slot, e.diff,
              max(cfg.reinjection_latency(e.dst) + spill, 1))
             for e in g.back_edges() if e.key() not in {f.edge_key for f in fed}]
    carriers = sorted((u.node.id, *c) for u in units for c in u.carriers)
    assert carriers == sorted(want)
    assert [c[:4] for c in carriers] == sorted(
        (e.src, index[e.dst], e.slot, e.diff) for e in g.back_edges())


def test_ii_oracle_matches_measurement_where_supported(fixtures):
    # with no hops and no spill latency a spilled carry still takes a cycle
    for hop, spill in ((1, 8), (0, 0)):
        spec = GridSpec(unit_map=default_grid().unit_map, hop_latency=hop)
        for name in ("scenario1.dfg", "scenario1f.dfg", "scenario2.dfg",
                     "scenario4.dfg", "wrf_nomem.dfg", "wrf_mem.dfg"):
            g = load_dfg(str(fixtures / name))
            cfg = map_graph(g, spec)
            for mode in ("dr", "baseline"):
                p = MachineParams(mode=mode, n_threads=128, spill_latency=spill)
                rep = simulate(cfg, g, p)
                assert rep.measured_ii == float(steady_state_ii(cfg, g, p)), (
                    name, hop, spill, mode)
