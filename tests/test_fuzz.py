"""Mutated input text: every defect must surface as the documented error type.

Each example applies 1-4 single-character inserts, deletes or replaces to a
bundled fixture or to an inline streaming trace, so most mutants sit one typo
away from a valid file.
"""

from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from loopgrid.grid import MapError, map_graph
from loopgrid.ir import DfgError, ExecError, parse_dfg
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

EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                           st.integers(min_value=0, max_value=10_000),
                           st.sampled_from(ALPHABET)),
                 min_size=1, max_size=4)


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
