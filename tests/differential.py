"""Digest every outcome of a fixed set of simulations, so that two revisions
of the simulator can be compared with one command each.

Run from the repository root, in each checkout:

    python tests/differential.py > digests.txt

Each line is one case's label and a digest of its report JSON, the digest of
its text trace (runs of at most 64 threads are also traced) and its error
text; the last line gives the case count and a digest over all the lines, so
two revisions agree when their last lines do, and ``diff`` names the cases
where they do not.

The set: every fixture (``fixtures/*.dfg`` and ``fixtures/suite/*.dfg``) at
buffer depths 16/1/2/3, hop latencies 1/0/2, both modes and six thread
counts from 1 to 3000; and ``random_dfg`` seeds 0-399 at ``max_diff`` 3 and
12, each at the four depths in both modes, once traced (1-64 threads) and
once long (65-3000 threads), with drawn hop latencies, memory caps, memory
and spill latencies, and back-edge seeds dropped from one draw in ten.
pytest does not collect this file.
"""

import hashlib
import io
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _random_graphs import random_dfg  # noqa: E402
from loopgrid.grid import default_grid, map_graph  # noqa: E402
from loopgrid.ir import load_dfg  # noqa: E402
from loopgrid.sim import MachineParams, simulate  # noqa: E402

DEPTHS = (16, 1, 2, 3)
HOPS = (1, 0, 2)
MODES = ("baseline", "dr")
FIXTURE_THREADS = (1, 8, 64, 130, 512, 3000)
TRACED_UP_TO = 64


def run(g, depth, hop, params) -> str:
    """The digest of one case: report JSON, trace digest and error text."""
    spec = default_grid()
    spec.token_buffer_depth, spec.hop_latency = depth, hop
    parts = []
    try:
        cfg = map_graph(g, spec)
        parts.append(json.dumps(simulate(cfg, g, params).to_json(), sort_keys=True))
        if params.n_threads <= TRACED_UP_TO:
            trace = io.StringIO()
            parts.append(json.dumps(simulate(cfg, g, params, trace=trace).to_json(),
                                    sort_keys=True))
            parts.append(hashlib.sha256(trace.getvalue().encode()).hexdigest())
    except Exception as exc:  # the error text is part of the outcome
        parts.append(f"{type(exc).__name__}: {exc}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def cases():
    """(label, graph, depth, hop, params) for every case, in a fixed order."""
    paths = sorted((ROOT / "fixtures").glob("*.dfg")) + sorted(
        (ROOT / "fixtures" / "suite").glob("*.dfg"))
    for path in paths:
        g = load_dfg(str(path))
        name = path.relative_to(ROOT / "fixtures")
        for depth in DEPTHS:
            for hop in HOPS:
                for mode in MODES:
                    for n in FIXTURE_THREADS:
                        yield (f"{name} {mode} d{depth} h{hop} n{n}", g, depth, hop,
                               MachineParams(mode=mode, n_threads=n))
    for max_diff in (3, 12):
        for seed in range(400):
            rng = random.Random(f"{seed}/{max_diff}")
            g = random_dfg(seed, max_diff)
            name = f"random({seed}, {max_diff})"
            if rng.random() < 0.1:
                name += " unseeded"
                seeded = {(e.dst, e.slot) for e in g.edges if e.kind == "back"}
                g.live_in = {k: lv for k, lv in g.live_in.items()
                             if (lv.node, lv.slot) not in seeded}
            for depth in DEPTHS:
                for mode in MODES:
                    for n in (rng.randint(1, TRACED_UP_TO), rng.randint(TRACED_UP_TO + 1, 3000)):
                        hop = rng.choice(HOPS)
                        params = MachineParams(mode=mode, n_threads=n,
                                               mem_max_outstanding=rng.choice((None, None, 1, 2, 3)),
                                               mem_latency=rng.randint(2, 25),
                                               spill_latency=rng.randint(0, 8))
                        yield (f"{name} {mode} d{depth} h{hop} n{n} "
                               f"cap{params.mem_max_outstanding} ml{params.mem_latency} "
                               f"sp{params.spill_latency}", g, depth, hop, params)


def main() -> int:
    total = hashlib.sha256()
    count = 0
    for label, g, depth, hop, params in cases():
        line = f"{label} {run(g, depth, hop, params)}"
        print(line)
        total.update(line.encode() + b"\n")
        count += 1
    print(f"total {count} cases {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
