"""Graph format, validation, and the sequential reference interpreter."""

import itertools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from loopgrid.ir import (
    DfgError,
    ExecError,
    KIND_INFO,
    LiveIn,
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

import _eval_oracle
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


def test_validate_refuses_memory_carried_graph(data_dir):
    g = load_dfg(str(data_dir / "memory_carried.dfg"))
    assert [(v.code, v.message) for v in validate(g)] == [
        ("memory-carried", "load 1 and store 4 can both use address 0")]
    assert reference_execute(g, 8) == [{3: t} for t in range(1, 9)]


def test_validate_refuses_a_computed_address(data_dir):
    g = load_dfg(str(data_dir / "computed_address.dfg"))
    assert [(v.code, v.message) for v in validate(g)] == [
        ("memory-carried", "load 2 and store 5 can both use the address node 1 computes")]
    assert reference_execute(g, 8) == [{4: t} for t in range(1, 9)]


LOAD_STORE = "node 0 load\nnode 1 store\nedge 0 1 1\nliveout 1\nmem 0 1\nmem 5 2\n"


@pytest.mark.parametrize("feeds, refused", [
    ("node 2 const 0\nedge 2 0 0\nnode 3 const 100\nedge 3 1 0", False),
    ("node 2 const 0\nedge 2 0 0\nnode 3 const 0.0\nedge 3 1 0", True),  # 0 == 0.0
    ("livein a 0 0 0 5\nnode 2 const 5\nedge 2 1 0", True),
    ("livein a 0 0 0 5\nlivein b 1 0 7", False),
    # an address another op computes can be any address
    ("livein a 0 0 0\nnode 2 const 0\nnode 3 add\nedge 2 3 0\nedge 2 3 1\nedge 3 1 0", True),
], ids=["disjoint", "int-float", "livein-const", "liveins", "computed"])
def test_memory_carried_reads_const_and_livein_addresses(feeds, refused):
    g = parse_dfg(LOAD_STORE + feeds)
    assert ("memory-carried" in {v.code for v in validate(g)}) is refused


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
        (
            "node 0 const 1\nnode 1 const 5\nnode 2 sub\nedge 0 2 0\nedge 1 2 1\n"
            "edge 0 2 -1\nliveout 2",
            "arity-mismatch",  # a negative slot is no slot either
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
        # a field used to be printed into the text unchecked: this one added
        # a live-out, the next turned the add into "const 7"
        {"node": [{"id": 0, "kind": "const 5\nliveout 0"}]},
        {"node": [{"id": "0 const 7 #", "kind": "add"}]},
        {"node": [], "nodes": []},  # unknown top-level keys were ignored
        {"node": [{"id": 0, "kind": "const", "value": 1, "vaule": 2}]},
        {"node": [{"id": 0, "kind": "const", "value": True}]},
        {"node": [{"id": 0, "kind": "const", "value": 1}], "liveout": [{"node": 0.0}]},
        {"node": [{"id": 0, "kind": "const", "value": 1}], "mem": {"addr": 0, "value": 1}},
        {"livein": [{"name": "", "node": 0, "slot": 0, "values": [1]}]},
        {"livein": [{"name": "x", "node": 0, "slot": 0, "values": ["1"]}]},
    ],
)
def test_parse_json_errors_are_syntax(doc):
    with pytest.raises(DfgError) as exc:
        parse_dfg_json(json.dumps(doc))
    assert exc.value.code == "syntax"


@pytest.mark.parametrize("text", [
    '{"mem": [{"addr": 0, "value": 1' + "0" * 5000 + '}]}',  # json raises ValueError
    "[" * 100_000 + "]" * 100_000,  # json raises RecursionError
], ids=["long-int", "deep-nesting"])
def test_parse_json_refuses_what_json_cannot_decode(text):
    with pytest.raises(DfgError) as exc:
        parse_dfg_json(text)
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


# legal declarations after the two nodes; adding SECOND_LIVEIN to either
# feeds slot 0 of the add twice
SLOT_FED_ONCE = {
    "two-liveins": ["edge 0 1 1", "livein a 1 0 5", "liveout 1"],
    "livein-on-edge-slot": ["edge 0 1 0", "edge 0 1 1", "liveout 1"],
}
SECOND_LIVEIN = "livein b 1 0 7"


@pytest.mark.parametrize("legal", SLOT_FED_ONCE.values(), ids=SLOT_FED_ONCE.keys())
def test_slot_fed_twice_through_livein_rejected(legal, tmp_path):
    nodes = ["node 0 const 1", "node 1 add"]
    for perm in itertools.permutations([*legal, SECOND_LIVEIN]):
        with pytest.raises(DfgError) as exc:
            parse_dfg("\n".join(nodes + list(perm)))
        assert exc.value.code == "duplicate-slot", perm
    doc = dfg_to_json(parse_dfg("\n".join(nodes + legal)))
    doc["livein"].append({"name": "b", "node": 1, "slot": 0, "values": [7]})
    (tmp_path / "g.json").write_text(json.dumps(doc))
    (tmp_path / "g.dfg").write_text("\n".join(nodes + legal + [SECOND_LIVEIN]))
    for load in (lambda: parse_dfg_json(json.dumps(doc)),
                 lambda: load_dfg(str(tmp_path / "g.json")),
                 lambda: load_dfg(str(tmp_path / "g.dfg"))):
        with pytest.raises(DfgError) as exc:
            load()
        assert exc.value.code == "duplicate-slot"


def test_livein_on_back_edge_slot_is_legal():
    rest = ["edge 0 1 1", "back 1 1 0 1", "livein a 1 0 5", "liveout 1"]
    for perm in itertools.permutations(rest):
        g = parse_dfg("\n".join(["node 0 const 1", "node 1 add", *perm]))
        assert validate(g) == [], perm


def test_validate_flags_two_liveins_on_one_slot():
    # parse_dfg refuses this graph, so build it by hand
    g = parse_dfg("node 0 const 1\nnode 1 add\nedge 0 1 1\nlivein a 1 0 5\nliveout 1")
    g.live_in["b"] = LiveIn("b", 1, 0, (7,))
    assert [v.code for v in validate(g)] == ["duplicate-slot"]


def test_validate_missing_livein_is_warning():
    # back edge with diff 2 but only one seed value: warn, don't hard-fail
    g = parse_dfg(
        "node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 2\n"
        "livein x 1 1 0\nliveout 1"
    )
    hits = [v for v in validate(g) if v.code == "livein-length"]
    assert hits and all(v.severity == "error" for v in hits)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(), st.floats(allow_nan=False)), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=12))
def test_livein_column_matches_value_for(values, n):
    # the simulator reads a plain live-in's operands from this column
    lv = LiveIn("x", 0, 0, tuple(values))
    assert lv.column(n) == [lv.value_for(t) for t in range(n)]


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
    assert eval_op("and", 6.0, 3.5, {}) == 2  # finite floats truncate
    assert eval_op("control", 1, 9, {}) == 9
    assert eval_op("control", 0, 9, {}) == 0
    assert eval_op("splitjoin", 5, None, {}) == 5
    assert eval_op("fadd", 1.5, 0.25, {}) == 1.75


@pytest.mark.parametrize("kind", ["and", "or", "shift"])
@pytest.mark.parametrize("a, b", [(float("inf"), 1), (1, float("-inf")), (float("nan"), 2),
                                  (3, float("nan"))], ids=["inf", "-inf", "nan-a", "nan-b"])
def test_integer_ops_refuse_non_finite_operands(kind, a, b):
    # inf and nan have no integer value; int() would raise a bare
    # OverflowError or ValueError
    with pytest.raises(ExecError) as exc:
        eval_op(kind, a, b, {})
    assert exc.value.code == "non-finite"


def test_eval_op_memory():
    mem = {4: 11}
    assert eval_op("load", 4, None, mem) == 11
    assert eval_op("store", 9, 3, mem) == 3
    assert mem[9] == 3
    with pytest.raises(Exception):
        eval_op("load", 5, None, mem)


I64 = 2**63
EDGE_INTS = [0, 1, -1, 2, 63, 64, I64 - 2, I64 - 1, I64, I64 + 1, -I64 - 1, -I64, -I64 + 1, 2**32]
OPERANDS = st.one_of(
    st.sampled_from(EDGE_INTS),
    st.integers(min_value=-I64 - 8, max_value=-I64 + 8),
    st.integers(min_value=I64 - 8, max_value=I64 + 8),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 0.5, 9.2e18]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def op_outcome(evaluate, kind, a, b, memory):
    """The value (as repr, so nan equals nan and 1 differs from True) and the
    memory after, or the raised error's type, code and message."""
    try:
        value = evaluate(kind, a, b, memory)
    except Exception as exc:  # every error must match, typed or not
        return ("raise", type(exc).__name__, getattr(exc, "code", None), str(exc))
    return ("ok", repr(value), repr(memory))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(KIND_INFO) + ["bogus"]), OPERANDS, OPERANDS,
       st.dictionaries(st.sampled_from(EDGE_INTS[:5] + [0.5]), OPERANDS, max_size=3))
# results one past each end of the int64 range, and the ends themselves
@example("add", I64 - 1, 1, {})
@example("add", I64 - 2, 1, {})
@example("sub", -I64, 1, {})
@example("sub", -I64 + 1, 1, {})
@example("mul", 2**62, 2, {})
@example("mul", -(2**62), 2, {})
def test_op_table_matches_the_old_if_chain(kind, a, b, memory):
    # a one-input kind gets None as b, as the interpreter and simulator pass it
    if kind in KIND_INFO and KIND_INFO[kind][0] == 1:
        b = None
    want = op_outcome(_eval_oracle.eval_op, kind, a, b, dict(memory))
    assert op_outcome(eval_op, kind, a, b, dict(memory)) == want


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
