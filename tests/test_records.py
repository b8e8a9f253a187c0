"""The record classes: immutable ones are NamedTuples, mutable ones share
``loopgrid._Record``.  Both list their fields in ``_fields``."""

import inspect
import math

import pytest

from loopgrid.analysis import LoopCarriedDep
from loopgrid.bench import Experiment, SpeedupCurve, SuiteSummary, SweepPoint
from loopgrid.grid import FeedbackAttachment, GridConfig, GridSpec, Route
from loopgrid.ir import DataflowGraph, Edge, LiveIn, Node, Violation
from loopgrid.sim import MachineParams, SimReport
from loopgrid.traceflow import BenchmarkStats, LoopRoute, RoutineGraph, RoutineStats

from conftest import FIXTURES

BACK = Edge(2, 1, 0, "back", 3)

# each builds a new record per call, equal to the last one
FROZEN = {
    "Node": lambda: Node(0, "const", 5),
    "Edge": lambda: Edge(2, 1, 0, "back", 3),
    "LiveIn": lambda: LiveIn("s", 1, 0, (4, 5)),
    "Violation": lambda: Violation("unreachable", "node 3 feeds nothing", "warning"),
    "LoopCarriedDep": lambda: LoopCarriedDep(BACK, 2, 1, 0, 3, (1, 2)),
    "Route": lambda: Route(((0, 0), (0, 1)), 1),
    "LoopRoute": lambda: LoopRoute((1, 2), 10, 7),
}
MUTABLE = {
    "DataflowGraph": lambda: DataflowGraph([Node(0, "const", 5)], live_out=[0]),
    "GridSpec": lambda: GridSpec(rows=2, cols=3),
    "FeedbackAttachment": lambda: FeedbackAttachment(BACK.key(), 2, 1, 0, 3, False),
    "GridConfig": lambda: GridConfig(GridSpec(), {0: (0, 3)}, {}, [], [BACK.key()]),
    "MachineParams": lambda: MachineParams(mode="baseline", n_threads=64),
    "SimReport": lambda: SimReport("dr", 2, 9, {0: 2}, {0: 0}, 0, {0: [5, 5]}, math.nan),
    "RoutineGraph": lambda: RoutineGraph("f", edge_counts={(1, 2): 3}),
    "RoutineStats": lambda: RoutineStats("f", 30, 1.0, math.nan, [], False, False),
    "BenchmarkStats": lambda: BenchmarkStats([], 0, 0.0),
    "Experiment": lambda: Experiment(str(FIXTURES / "scenario1.dfg"), threads=(8, 32)),
    "SweepPoint": lambda: SweepPoint(8, 100, 25),
    "SpeedupCurve": lambda: SpeedupCurve([SweepPoint(8, 100, 25)]),
    "SuiteSummary": lambda: SuiteSummary(["a"], (8,), {"a": {8: 2.0}}, {"a": 1.0}, {8: 2.0}),
}


def field_repr(record) -> str:
    body = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    return f"{type(record).__name__}({body})"


@pytest.mark.parametrize("make", [*FROZEN.values(), *MUTABLE.values()],
                         ids=[*FROZEN, *MUTABLE])
def test_fields_are_the_constructor_parameters(make):
    # repr and equality read _fields, so it must name every field, in order
    record = make()
    assert tuple(inspect.signature(type(record)).parameters) == record._fields


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN)
def test_frozen_records_are_value_tuples(make):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(a))  # the hash a frozen dataclass gave
    assert repr(a) == field_repr(a)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], None)


def test_frozen_repr_names_each_field():
    assert repr(Edge(2, 1, 0, "back", 3)) == "Edge(src=2, dst=1, slot=0, kind='back', diff=3)"
    assert repr(Node(4, "add")) == "Node(id=4, kind='add', value=None)"


@pytest.mark.parametrize("make", MUTABLE.values(), ids=MUTABLE)
def test_mutable_records_compare_fields_within_their_class(make):
    a, b = make(), make()
    assert a == b  # a nan field (SimReport, RoutineStats) included
    assert a != tuple(getattr(a, f) for f in a._fields)
    assert repr(a) == field_repr(a)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    first = a._fields[0]
    setattr(b, first, "changed")
    assert getattr(b, first) == "changed"
    assert a != b


def test_mutable_records_are_equal_only_within_one_class():
    class Point(SweepPoint):
        pass

    assert SweepPoint(8, 100, 25) != Point(8, 100, 25)
    assert SweepPoint(8, 100, 25) != SweepPoint(8, 100, 26)


def test_mutable_repr_names_each_field():
    assert (repr(SweepPoint(8, 100, 25))
            == "SweepPoint(threads=8, cycles_baseline=100, cycles_dr=25)")


def test_omitted_containers_are_fresh_per_instance():
    for a, b in [(DataflowGraph(), DataflowGraph()), (RoutineGraph("f"), RoutineGraph("f")),
                 (GridSpec(), GridSpec())]:
        for f in a._fields:
            if isinstance(getattr(a, f), (list, dict)):
                assert getattr(a, f) is not getattr(b, f), f
    a = DataflowGraph()
    a.nodes.append(Node(0, "const", 1))
    a.live_in["s"] = LiveIn("s", 0, 0, (1,))
    assert DataflowGraph() == DataflowGraph([], [], {}, [], {})
    dfg = str(FIXTURES / "scenario1.dfg")
    assert Experiment(dfg).overrides is not Experiment(dfg).overrides
