"""Golden digests: simulator reports and text traces stay byte-identical.

`tests/data/sim_golden.json` holds the sha256 of every fixture's report JSON
(per mode and thread count) and of its 8-thread text trace.  Any change to
the stepper that moves a single cycle, count or trace line fails here.
Regenerate only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_sim_golden.py
"""

import hashlib
import io
import json
import pathlib

from loopgrid.grid import map_graph
from loopgrid.ir import load_dfg
from loopgrid.sim import MachineParams, simulate

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "sim_golden.json"
THREADS = (1, 8, 32, 128, 512)
TRACE_THREADS = 8


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict:
    reports, traces = {}, {}
    for path in sorted((ROOT / "fixtures").glob("*.dfg")):
        g = load_dfg(str(path))
        cfg = map_graph(g)
        for mode in ("baseline", "dr"):
            for n in THREADS:
                rep = simulate(cfg, g, MachineParams(mode=mode, n_threads=n))
                reports[f"{path.name}/{mode}/{n}"] = _sha(
                    json.dumps(rep.to_json(), sort_keys=True))
            buf = io.StringIO()
            simulate(cfg, g, MachineParams(mode=mode, n_threads=TRACE_THREADS), trace=buf)
            traces[f"{path.name}/{mode}/{TRACE_THREADS}"] = _sha(buf.getvalue())
    return {"reports": reports, "traces": traces}


def test_reports_and_traces_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    for kind in ("reports", "traces"):
        assert sorted(got[kind]) == sorted(golden[kind]), kind
        moved = [k for k in golden[kind] if got[kind][k] != golden[kind][k]]
        assert moved == [], f"{kind} changed: {moved}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
