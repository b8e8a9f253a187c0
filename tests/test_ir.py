"""Graph format, validation, and the sequential reference interpreter."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from loopgrid.ir import (
    DfgError,
    eval_op,
    format_dfg,
    load_dfg,
    parse_dfg,
    parse_dfg_json,
    dfg_to_json,
    reference_execute,
    validate,
    wrap64,
)

from _random_graphs import random_dfg


# ---------------------------------------------------------------- parsing

def test_parse_accumulator_shape(fixtures):
    g = load_dfg(str(fixtures / "accumulator.dfg"))
    kinds = [n.kind for n in g.nodes]
    assert kinds == ["const", "add"]
    back = [e for e in g.edges if e.kind == "back"]
    assert len(back) == 1
    assert (back[0].src, back[0].dst, back[0].slot, back[0].diff) == (1, 1, 0, 1)
    assert g.live_out == [1]


def test_parse_comments_and_blank_lines():
    g = parse_dfg("# header\n\nnode 0 const 2\n  # indented comment\nliveout 0\n")
    assert len(g.nodes) == 1 and g.live_out == [0]


@pytest.mark.parametrize(
    "text,code,line",
    [
        ("node 0 bogus", "bad-kind", 1),
        ("node 0 add\nedge 0 5 0", "dangling-reference", 2),
        ("node 0 const 1\nnode 1 add\nedge 0 1 0\nedge 0 1 0", "duplicate-slot", 4),
        ("node 0", "syntax", 1),
        ("node 1 add", "syntax", 1),  # ids must start at 0 and be dense
        ("frobnicate 1 2", "syntax", 1),
        ("node 0 add\nlivein x 0 a 1", "syntax", 2),  # non-integer slot
        ("node 0 add\nlivein x b 0 1", "syntax", 2),  # non-integer node
    ],
)
def test_parse_errors(text, code, line):
    with pytest.raises(DfgError) as exc:
        parse_dfg(text)
    assert exc.value.code == code
    assert exc.value.line == line


def test_parse_error_column_points_at_bad_token():
    # the bad node id "n" also occurs earlier on the line, inside "livein"
    with pytest.raises(DfgError) as exc:
        parse_dfg("node 0 add\n  livein ni n 0 1")
    assert (exc.value.line, exc.value.col) == (2, 13)


def test_all_fixtures_validate_clean(fixtures):
    for path in sorted(fixtures.glob("*.dfg")):
        g = load_dfg(str(path))
        errors = [v for v in validate(g) if v.severity == "error"]
        assert errors == [], f"{path.name}: {errors}"


@pytest.mark.parametrize(
    "text,code",
    [
        ("node 0 const 1\nnode 1 add\nedge 0 1 0\nliveout 1", "unfed-slot"),
        (
            "node 0 add\nnode 1 add\nedge 0 1 0\nedge 1 0 0\n"
            "livein a 0 1 1\nlivein b 1 1 1\nliveout 1",
            "intra-cycle",
        ),
        (
            "node 0 const 1\nnode 1 splitjoin\nedge 0 1 0\nedge 0 0 0\nliveout 1",
            "const-input",
        ),
        (
            "node 0 const 1\nnode 1 add\nedge 0 1 0\nlivein y 1 1 2\n"
            "livein z 1 7 3\nliveout 1",
            "arity-mismatch",  # livein on a slot the add does not have
        ),
    ],
)
def test_validate_negatives(text, code):
    g = parse_dfg(text)
    assert code in {v.code for v in validate(g)}


@pytest.mark.parametrize(
    "doc",
    [
        {"node": [{"kind": "add"}]},  # node without an id
        {"node": [{"id": 0, "kind": "const", "value": 1}], "liveout": [{}]},
        [],  # not an object
        {"node": [0]},
    ],
)
def test_parse_json_errors_are_syntax(doc):
    with pytest.raises(DfgError) as exc:
        parse_dfg_json(json.dumps(doc))
    assert exc.value.code == "syntax"


def test_parse_rejects_zero_diff():
    with pytest.raises(DfgError) as exc:
        parse_dfg("node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 0\nliveout 1")
    assert exc.value.code == "syntax"


def test_validate_flags_constructed_zero_diff():
    g = parse_dfg(
        "node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 1\n"
        "livein x 1 1 0\nliveout 1"
    )
    from loopgrid.ir import Edge

    g.edges = [
        e if e.kind != "back" else Edge(e.src, e.dst, e.slot, "back", 0)
        for e in g.edges
    ]
    assert "bad-diff" in {v.code for v in validate(g)}


def test_validate_missing_livein_is_warning():
    # back edge with diff 2 but only one seed value: warn, don't hard-fail
    g = parse_dfg(
        "node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 2\n"
        "livein x 1 1 0\nliveout 1"
    )
    hits = [v for v in validate(g) if v.code == "livein-length"]
    assert hits and all(v.severity == "error" for v in hits)


# ---------------------------------------------------------------- round trips

def test_format_parse_round_trip_fixtures(fixtures):
    for path in sorted(fixtures.glob("*.dfg")):
        g = load_dfg(str(path))
        text = format_dfg(g)
        assert format_dfg(parse_dfg(text)) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_random(seed):
    g = random_dfg(seed)
    text = format_dfg(g)
    again = parse_dfg(text)
    assert format_dfg(again) == text
    blob = json.dumps(dfg_to_json(g))
    assert dfg_to_json(parse_dfg_json(blob)) == dfg_to_json(g)


# ---------------------------------------------------------------- operators

def test_wrap64_boundaries():
    assert wrap64(2**63) == -(2**63)
    assert wrap64(-(2**63) - 1) == 2**63 - 1
    assert wrap64(7) == 7


def test_eval_op_basics():
    assert eval_op("add", 2**63 - 1, 1, {}) == -(2**63)  # signed wraparound
    assert eval_op("sub", 2, 5, {}) == -3
    assert eval_op("mul", 6, 7, {}) == 42
    assert eval_op("cmp", 2, 3, {}) == 1
    assert eval_op("cmp", 3, 3, {}) == 0
    assert eval_op("and", 6, 3, {}) == 2
    assert eval_op("or", 4, 1, {}) == 5
    assert eval_op("shift", 3, 2, {}) == 12
    assert eval_op("control", 1, 9, {}) == 9
    assert eval_op("control", 0, 9, {}) == 0
    assert eval_op("splitjoin", 5, None, {}) == 5
    assert eval_op("fadd", 1.5, 0.25, {}) == 1.75


def test_eval_op_memory():
    mem = {4: 11}
    assert eval_op("load", 4, None, mem) == 11
    assert eval_op("store", 9, 3, mem) == 3
    assert mem[9] == 3
    with pytest.raises(Exception):
        eval_op("load", 5, None, mem)


# ---------------------------------------------------------------- reference runs

def test_reference_accumulator(fixtures):
    # x starts at 0, adds 1 each thread
    g = load_dfg(str(fixtures / "accumulator.dfg"))
    assert reference_execute(g, 4) == [{1: 1}, {1: 2}, {1: 3}, {1: 4}]


def test_reference_diff2_uses_older_thread():
    # two interleaved accumulators seeded 0 and 10
    g = parse_dfg(
        "node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 2\n"
        "livein x 1 1 0 10\nliveout 1"
    )
    assert reference_execute(g, 4) == [{1: 1}, {1: 11}, {1: 2}, {1: 12}]


def test_reference_memory_chain(fixtures):
    # running sum over a 3-element array
    g = load_dfg(str(fixtures / "scenario4.dfg"))
    assert reference_execute(g, 3) == [{1: 5}, {1: 12}, {1: 21}]


def test_reference_no_back_edge_is_uniform():
    g = parse_dfg(
        "node 0 const 3\nnode 1 const 4\nnode 2 mul\n"
        "edge 0 2 0\nedge 1 2 1\nliveout 2"
    )
    assert reference_execute(g, 5) == [{2: 12}] * 5


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reference_deterministic(seed):
    g = random_dfg(seed)
    assert reference_execute(g, 5) == reference_execute(g, 5)
