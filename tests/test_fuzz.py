"""Mutated inputs: every defect must surface as the documented error type.

Each text example applies 1-4 single-character inserts, deletes or replaces
to a bundled fixture, an inline streaming trace or a JSON input, so most
mutants sit one typo away from a valid file.  The JSON inputs (experiment
file, ``weights.json``, the JSON graph form and the grid spec) are also
mutated as structures: members set to drawn JSON values, deleted, or the
document wrapped in a list.
"""

import copy
import json
import pathlib
import shutil
import tempfile

from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from loopgrid.bench import load_experiment, suite
from loopgrid.grid import GridSpec, MapError, default_grid, map_graph
from loopgrid.ir import DfgError, ExecError, dfg_to_json, parse_dfg, parse_dfg_json
from loopgrid.sim import DeadlockError, MachineParams, simulate
from loopgrid.traceflow import TraceError, ingest, prevalence_report

DFG_TEXTS = [p.read_text() for p in sorted(FIXTURES.glob("*.dfg"))]
# every bundled trace is aggregated; the streaming text repeats its lines,
# so mutants also reach ingest's parsed-line lookups
STREAM_TEXT = """# two routines, interleaved
main,0,4
main,1,2
main,2,7
main,1,2
main,2,7
main,3
helper,0,1
helper,1,3
helper,0,1
helper,1,3
main,1,2
main,2,7
main,3
main,0,4
"""
TRC_TEXTS = [p.read_text() for p in sorted((FIXTURES / "traces").glob("*.trc"))] + [STREAM_TEXT]

# characters the two formats give meaning to, plus a few they do not
ALPHABET = "0123456789 \n\t#,-+.xeinfa_z"


def text_edits(alphabet: str):
    return st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                              st.integers(min_value=0, max_value=10_000),
                              st.sampled_from(alphabet)),
                    min_size=1, max_size=4)


EDITS = text_edits(ALPHABET)


def mutate(text: str, edits) -> str:
    for op, pos, ch in edits:
        if op == "insert":
            i = pos % (len(text) + 1)
            text = text[:i] + ch + text[i:]
        elif text:
            i = pos % len(text)
            text = text[:i] + (ch if op == "replace" else "") + text[i + 1:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DFG_TEXTS), EDITS, st.integers(min_value=1, max_value=8))
def test_mutated_graph_text_raises_only_typed_errors(text, edits, n):
    try:
        g = parse_dfg(mutate(text, edits))
        cfg = map_graph(g)
    except (DfgError, MapError):
        return
    for mode in ("baseline", "dr"):
        try:
            simulate(cfg, g, MachineParams(mode=mode, n_threads=n))
        except (DfgError, DeadlockError, ExecError):
            pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TRC_TEXTS), EDITS)
def test_mutated_trace_text_raises_only_trace_error(text, edits):
    try:
        prevalence_report(ingest(mutate(text, edits).splitlines()))
    except TraceError:
        pass


EXPERIMENT = {"dfg": "scenario1.dfg", "grid": None, "threads": [8, 32],
              "overrides": {"spill_latency": 4}}
WEIGHTS = json.loads((FIXTURES / "suite" / "weights.json").read_text())
JSON_ALPHABET = '{}[]":,0123456789.-+eE tnrufalsNIy_'
DFG_DOCS = [dfg_to_json(parse_dfg(text)) for text in DFG_TEXTS]
GRID_DOC = default_grid().to_json()
# keys of every document, a few near misses, and MachineParams fields
KEYS = st.sampled_from(["dfg", "grid", "threads", "overrides", "thread", "spill_latency",
                        "mem_latency", "mode", "scenario1", "scenario4", "scenario9", "",
                        "node", "edge", "back", "livein", "liveout", "mem", "nodes", "id",
                        "kind", "value", "src", "dst", "slot", "diff", "name", "values",
                        "addr", "rows", "cols", "unit_map", "latencies", "hop_latency",
                        "token_buffer_depth", "alu", "load", "0,0", "7,7"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6)
STRUCT_EDITS = st.lists(st.tuples(st.sampled_from(["set", "set", "delete", "wrap"]),
                                  st.integers(min_value=0, max_value=100), KEYS, JSON_VALUES),
                        min_size=1, max_size=3)


def _containers(doc) -> list:
    members = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    return ([doc] if isinstance(doc, (dict, list)) else []) + [
        box for v in members for box in _containers(v)]


def mutate_structure(doc, edits):
    doc = copy.deepcopy(doc)
    for op, pick, key, value in edits:
        boxes = _containers(doc)
        if op == "wrap" or not boxes:
            doc = [doc] if op == "wrap" else value
            continue
        box = boxes[pick % len(boxes)]
        if op == "set" and isinstance(box, dict):
            box[key] = value
        elif op == "set" and box:
            box[pick % len(box)] = value
        elif op == "set":
            box.append(value)
        elif box:
            del box[list(box)[pick % len(box)] if isinstance(box, dict) else pick % len(box)]
    return doc


def _json_mutant(doc, edits, as_text: bool) -> str:
    if as_text:
        return mutate(json.dumps(doc), edits)
    return json.dumps(mutate_structure(doc, edits))


JSON_MUTANTS = st.one_of(st.tuples(text_edits(JSON_ALPHABET), st.just(True)),
                         st.tuples(STRUCT_EDITS, st.just(False)))


@settings(max_examples=300, deadline=None)
@given(JSON_MUTANTS)
def test_mutated_experiment_file_raises_only_value_errors(mutant):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(FIXTURES / "scenario1.dfg", tmp)
        path = pathlib.Path(tmp) / "exp.json"
        path.write_text(_json_mutant(EXPERIMENT, *mutant))
        try:
            load_experiment(str(path))
        except (ValueError, DfgError, FileNotFoundError):
            pass


@settings(max_examples=300, deadline=None)
@given(JSON_MUTANTS)
def test_mutated_weights_raise_only_value_errors(mutant):
    with tempfile.TemporaryDirectory() as tmp:
        for name in WEIGHTS:
            shutil.copy(FIXTURES / "suite" / f"{name}.dfg", tmp)
        (pathlib.Path(tmp) / "weights.json").write_text(_json_mutant(WEIGHTS, *mutant))
        try:
            suite(tmp, threads=(1,))
        except (ValueError, DfgError, FileNotFoundError):
            pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DFG_DOCS), JSON_MUTANTS)
def test_mutated_json_graph_raises_only_typed_errors(doc, mutant):
    try:
        map_graph(parse_dfg_json(_json_mutant(doc, *mutant)))
    except (DfgError, MapError):
        pass


@settings(max_examples=300, deadline=None)
@given(JSON_MUTANTS)
def test_mutated_grid_spec_raises_only_value_errors(mutant):
    try:
        GridSpec.from_json(json.loads(_json_mutant(GRID_DOC, *mutant)))
    except ValueError:  # JSONDecodeError included
        pass
