"""Digest every outcome of a fixed set of trace ingests and loop searches, so
that two revisions of ``traceflow`` can be compared with one command each.

Run from the repository root, in each checkout:

    python tests/trace_differential.py > digests.txt

Each line is one trace's label and a digest of what ``traceflow`` makes of
it: every graph's ``instr_counts`` and ``edge_counts`` items in insertion
order, ``enumerate_loops`` at three ``(max_len, max_routes)`` settings and
the ``prevalence_report`` JSON, or the error text of a refused trace.  The
last line gives the trace count and a digest over all the lines, so two
revisions agree when their last lines do, and ``diff`` names the traces
where they do not.

The set, built here from fixed seeds: streaming traces of loop nests in
several routines, with drawn padding and line endings; large sparse and
small dense aggregated traces; aggregated traces whose routines interleave,
repeat edges and redeclare blocks, with padded fields and comment, blank and
repeated header lines; one corrupted copy of each of those; and the bundled
``fixtures/traces/*.trc``.  pytest does not collect this file.
"""

import hashlib
import io
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from loopgrid.traceflow import enumerate_loops, ingest, prevalence_report  # noqa: E402

SETTINGS = ((32, 4096), (3, 10), (8, 0))  # (max_len, max_routes)
PADS = ("", "", " ", "\t", "\x1c", "\x1f")  # str.strip() skips all of them
EOLS = ("\n", "\n", "\r\n")


def run(text: str) -> str:
    """The digest of one trace: graphs, loop routes and report, or error text."""
    try:
        graphs = ingest(io.StringIO(text))
        parts = [[name, list(g.instr_counts.items()), list(g.edge_counts.items())]
                 for name, g in graphs.items()]
        for max_len, max_routes in SETTINGS:
            for g in graphs.values():
                routes, truncated = enumerate_loops(g, max_len, max_routes)
                parts.append([[list(r) for r in routes], truncated])
        parts.append(prevalence_report(graphs).to_json())
        out = json.dumps(parts, sort_keys=True)
    except Exception as exc:  # the error text is part of the outcome
        out = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(out.encode()).hexdigest()[:16]


def _walk(rng: random.Random, n_blocks: int):
    """Endless block sequence of a loop nest over blocks 0..n_blocks-1:
    an entry block, a loop whose body may branch, and a tail."""
    while True:
        yield 0
        for _ in range(rng.randint(1, 6)):
            yield 1
            for _ in range(rng.randint(1, 9)):
                yield from range(2, n_blocks - 2, rng.choice((1, 2)))
            yield n_blocks - 2
        yield n_blocks - 1


def streaming(index: int) -> str:
    """A streaming trace of three routines, called in bursts; most lines
    carry an instruction count, and a few padded renderings repeat.  In
    trace 2 the counts drift, so it holds more distinct lines than
    ``ingest`` keeps parsed."""
    rng = random.Random(f"trace-stream/{index}")
    walkers = [(f"r{i}", rng.randint(6, 14), _walk(rng, rng.randint(6, 14))) for i in range(3)]
    out = []
    while len(out) < 20_000:
        name, instr, walk = rng.choice(walkers)
        for _ in range(rng.randint(20, 200)):
            bb = next(walk)
            drift = len(out) // 4 if index == 2 else 0
            line = f"{name},{bb}" + ("" if bb % 5 == 4 else f",{instr + bb + drift}")
            if rng.random() < 0.01:
                line = rng.choice(PADS) + line.replace(",", rng.choice(("\t,", ", "))) + " "
            out.append(line + rng.choice(EOLS))
    return "".join(out)


def sparse(index: int) -> str:
    """An aggregated trace of one long routine: a chain of 1,500 blocks
    with a short loop every few blocks, and two small helper routines."""
    rng = random.Random(f"trace-sparse/{index}")
    lines = ["#aggregated"]
    for b in range(1499):
        lines.append(f"main,{b},{b + 1},{rng.randint(1, 9)}")
        if b % 7 == 3:
            lines.append(f"main,{b + rng.randint(0, 3)},{b},{rng.randint(5, 400)}")
    lines += [f"#bb main,{bb},{rng.randint(1, 12)}" for bb in range(0, 1500, 2)]
    for h in range(2):
        lines += [f"helper{h},0,1,3", f"helper{h},1,0,2", f"#bb helper{h},1,4"]
    return "\n".join(lines) + "\n"


def dense(index: int) -> str:
    """An aggregated trace of two complete digraphs, self-loops included,
    on 7 and 5 blocks: 2,372 and 89 simple cycles, which the smaller route
    caps of ``SETTINGS`` cut."""
    rng = random.Random(f"trace-dense/{index}")
    lines = ["#aggregated"]
    for name, n in (("hot", 7), ("warm", 5)):
        lines += [f"{name},{s},{d},{rng.randint(1, 500)}" for s in range(n) for d in range(n)]
        lines += [f"#bb {name},{bb},{rng.randint(1, 20)}" for bb in range(n)]
    return "\n".join(lines) + "\n"


def mixed(index: int) -> str:
    """An aggregated trace of six interleaved routines, each a ring of 12
    blocks whose middle blocks also jump ahead, back or to themselves:
    edges repeat, so counts sum; blocks are declared again, so the last
    count wins; fields are padded and comment, blank and header lines come
    in between."""
    rng = random.Random(f"trace-mixed/{index}")
    out = ["# generated" + rng.choice(EOLS), rng.choice(PADS) + "#aggregated" + rng.choice(EOLS)]
    for _ in range(3000):
        name = f"m{rng.randint(0, 5)}"
        r = rng.random()
        if r < 0.05:
            out.append(rng.choice(("", "# note", "#aggregated", "#bb")) + rng.choice(EOLS))
        elif r < 0.25:
            out.append(f"#bb {rng.choice(PADS)}{name},{rng.randint(0, 11)},"
                       f"{rng.choice(('', ' '))}{rng.randint(1, 30)}{rng.choice(EOLS)}")
        else:
            src = rng.randint(0, 11)
            dst = src + rng.choice((1, 1, 2, 0, -3)) if 3 <= src < 10 else (src + 1) % 12
            fields = (name, src, dst, rng.randint(1, 50))
            out.append(",".join(rng.choice(PADS) + str(f) + rng.choice(PADS) for f in fields)
                       + rng.choice(EOLS))
    return "".join(out)


def corrupted(text: str, seed: str) -> str:
    """``text`` with one line past the first quarter replaced by a drawn
    fault, or by a line that changes what it holds."""
    rng = random.Random(f"trace-bad/{seed}")
    lines = io.StringIO(text).readlines()
    i = rng.randint(len(lines) // 4, len(lines) - 1)
    lines[i] = rng.choice(("f,x\n", "f,0,1,0\n", "f,0,1,2,3\n", "#bb f,\x1c0,5\n", "#aggregated\n",
                           "#bb f,0,5\n", "f,0,1\n"))
    return "".join(lines)


def traces():
    """(label, text) for every trace, in a fixed order."""
    kinds = (("stream", streaming), ("sparse", sparse), ("dense", dense), ("mixed", mixed))
    for kind, make in kinds:
        for i in range(3):
            yield f"{kind} {i}", make(i)
    for kind, make in kinds:
        yield f"{kind} 0 corrupted", corrupted(make(0), kind)
    for path in sorted((ROOT / "fixtures" / "traces").glob("*.trc")):
        yield str(path.relative_to(ROOT)), path.read_text(encoding="utf-8")


def main() -> int:
    total = hashlib.sha256()
    count = 0
    for label, text in traces():
        line = f"{label} {run(text)}"
        print(line)
        total.update(line.encode() + b"\n")
        count += 1
    print(f"total {count} traces {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
