"""The four workloads: inputs from a seed, ops, and output checks.

``prepare`` runs in the harness process and writes a workload's inputs
under a work directory; it needs no loopgrid import.  ``load`` runs in the
worker process after loopgrid is imported and turns the manifest into ops.
An op's ``run`` is the timed call sequence; ``check`` runs untimed and
returns (counts, digest of the output, error or None).  The caller compares
the digest with ``expected.json``, recorded from this code by
``record.py``.  A typed refusal (``MapError``/``DfgError``) is an output
like any other: it passes only when the recorded outcome is the same
refusal.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

WORKLOADS = ("sim-long", "many-graphs", "trace-mine", "cli-oneshot")
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

SIM_THREADS = (512, 4096)
SMALL_PER_PASS = 150
SPARSE_PER_PASS = 3
DENSE_PER_PASS = 2
COVERAGE = (0.90, 0.95)
MODES = ("baseline", "dr")


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# preparation (harness side)


TRACE_KINDS = {"stream": gen.streaming_trace, "sparse": gen.sparse_trace,
               "dense": gen.dense_trace}


def graph_spec(kind: str, index: int) -> dict:
    if kind == "small":
        text, threads = gen.small_graph(index)
        return {"key": f"small/{index}", "text": text, "threads": threads}
    depth = int(kind[len("chain"):])
    text, threads = gen.chain_graph(depth, index)
    return {"key": f"{kind}/{index}", "text": text, "threads": threads, "grid": True}


def trace_spec(kind: str, index: int, work: Path) -> dict:
    text = TRACE_KINDS[kind](index)
    path = work / f"{kind}-{index}.trc"
    path.write_text(text, encoding="utf-8")
    return {"key": f"{kind}/{index}", "path": str(path), "lines": text.count("\n")}


def fixed_specs(name: str, work: Path, root: Path) -> list[dict]:
    """The ops of a workload that do not depend on the seed."""
    fixtures = root / "fixtures"
    if name == "sim-long":
        ops = [{"key": f"run_pair/{p.name}@{t}", "dfg": str(p), "threads": t}
               for p in sorted(fixtures.glob("*.dfg")) for t in SIM_THREADS]
        return ops + [{"key": "suite", "dir": str(fixtures / "suite")}]
    if name == "trace-mine":
        return [{"key": f"fixture/{p.name}", "path": str(p),
                 "lines": p.read_text(encoding="utf-8").count("\n")}
                for p in sorted((fixtures / "traces").glob("*.trc"))]
    if name == "cli-oneshot":
        exp = work / "exp.json"
        exp.write_text(json.dumps({"dfg": str(fixtures / "scenario1.dfg"), "threads": [8, 32]}),
                       encoding="utf-8")
        argvs = {
            "analyze": ["analyze", str(fixtures / "scenario3.dfg")],
            "map": ["map", str(fixtures / "scenario2.dfg")],
            "sim": ["sim", str(fixtures / "scenario4.dfg"), "--mode", "dr", "--threads", "32"],
            "sweep": ["sweep", "--exp", str(exp), "--out", "-"],
            "suite": ["suite", "--dir", str(fixtures / "suite"), "--out", "-"],
            "trace": ["trace", "--in", str(fixtures / "traces" / "coverage90.trc"),
                      "--coverage", "0.90,0.95"],
        }
        return [{"key": f"cli/{cmd}", "cmd": cmd, "argv": argv} for cmd, argv in argvs.items()]
    return []


def prepare(name: str, seed: int, work: Path, root: Path) -> dict:
    """Write the inputs of one run under ``work``; returns the manifest.
    The seed picks the generated items and shuffles the op order."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload '{name}'")
    rng = random.Random(seed)
    ops = fixed_specs(name, work, root)
    if name == "many-graphs":
        ops += [graph_spec("small", i)
                for i in sorted(rng.sample(range(gen.SMALL_POOL), SMALL_PER_PASS))]
        ops += [graph_spec(f"chain{d}", rng.randrange(gen.CHAIN_POOL)) for d in gen.CHAIN_DEPTHS]
    elif name == "trace-mine":
        for kind, n in (("stream", 1), ("sparse", SPARSE_PER_PASS), ("dense", DENSE_PER_PASS)):
            ops += [trace_spec(kind, i, work) for i in sorted(rng.sample(range(gen.TRACE_POOL), n))]
    rng.shuffle(ops)
    return {"workload": name, "seed": seed, "root": str(root), "ops": ops}


# ---------------------------------------------------------------------------
# ops (worker side)


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], tuple[dict, str | None, str | None]]
    lines: int = 0  # trace lines ingested per run


@dataclass
class Workload:
    name: str
    ops: list[Op]
    tracer: object = None  # set while a traced pass runs (cli-oneshot spans)
    child_peak_kb: int = 0  # largest peak resident set of a cli-oneshot process


def load(manifest: dict) -> Workload:
    return {"sim-long": _sim_long, "many-graphs": _many_graphs, "trace-mine": _trace_mine,
            "cli-oneshot": _cli_oneshot}[manifest["workload"]](manifest)


def _sim_long(manifest: dict) -> Workload:
    from loopgrid import bench

    # bench.run_pair returns only cycle counts; keep the reports it makes
    # so every SimReport can be checked
    captured: list = []
    inner = bench.simulate

    def capture(*args, **kwargs):
        rep = inner(*args, **kwargs)
        captured.append(rep)
        return rep

    bench.simulate = capture

    def run_pair_op(spec):
        def run():
            captured.clear()
            return bench.run_pair(spec["dfg"], spec["threads"]), list(captured)

        def check(out):
            point, reps = out
            cycles = {"cycles": sum(r.total_cycles for r in reps)}
            if [(r.mode, r.total_cycles) for r in reps] != [
                    ("baseline", point.cycles_baseline), ("dr", point.cycles_dr)]:
                return cycles, None, "SweepPoint disagrees with its SimReports"
            return cycles, digest([r.to_json() for r in reps]), None

        return Op(spec["key"], run, check)

    def suite_op(spec):
        def run():
            captured.clear()
            return bench.suite(spec["dir"]), list(captured)

        def check(out):
            summary, reps = out
            got = digest({"csv": summary.to_csv(), "reports": [r.to_json() for r in reps]})
            return {"cycles": sum(r.total_cycles for r in reps)}, got, None

        return Op(spec["key"], run, check)

    ops = [suite_op(s) if "dir" in s else run_pair_op(s) for s in manifest["ops"]]
    return Workload("sim-long", ops)


def _many_graphs(manifest: dict) -> Workload:
    from loopgrid import analysis, grid, ir, sim

    chain_spec = grid.GridSpec.from_json(gen.chain_grid())

    def graph_op(spec):
        text, threads = spec["text"], spec["threads"]
        gspec = chain_spec if spec.get("grid") else None

        def run():
            try:
                g = ir.parse_dfg(text)
                errors = sorted({v.code for v in ir.validate(g) if v.severity == "error"})
                if errors:
                    return "refused:validate:" + ",".join(errors)
                deps = analysis.find_deps(g, gspec.latencies if gspec else None)
                patterns = [analysis.classify(g, d, deps) for d in deps]
                cfg = grid.map_graph(g, gspec)
                reps = [sim.simulate(cfg, g, sim.MachineParams(mode=m, n_threads=threads))
                        for m in MODES]
                ref = ir.reference_execute(g, threads)
            except (grid.MapError, ir.DfgError) as exc:
                return f"refused:{type(exc).__name__}:{exc.code}"
            return cfg, patterns, reps, ref

        def check(out):
            if isinstance(out, str):
                return {}, out, None
            cfg, patterns, reps, ref = out
            cycles = {"cycles": sum(r.total_cycles for r in reps)}
            bad = [r.mode for r in reps if r.live_out != ref]
            if bad:
                return cycles, None, f"{bad} live_out differs from reference_execute"
            got = digest({"config": cfg.to_json(),
                          "patterns": [[p.value, mem] for p, mem in patterns],
                          "reports": [r.to_json() for r in reps]})
            return cycles, got, None

        return Op(spec["key"], run, check)

    return Workload("many-graphs", [graph_op(s) for s in manifest["ops"]])


def _trace_mine(manifest: dict) -> Workload:
    from loopgrid import traceflow

    def trace_op(spec):
        def run():
            stats = traceflow.prevalence_report(traceflow.ingest_file(spec["path"]))
            routes = [rt for r in stats.routines for rt in r.routes]
            return stats, [traceflow.coverage_of_routes(routes, p) for p in COVERAGE]

        def check(out):
            stats, cov = out
            return {}, digest({"stats": stats.to_json(), "coverage": cov}), None

        return Op(spec["key"], run, check, lines=spec["lines"])

    return Workload("trace-mine", [trace_op(s) for s in manifest["ops"]])


def cli_env(root: str) -> dict:
    """The environment of a loopgrid process: ``src/`` of ``root`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def shim_report(proc) -> dict:
    """The JSON object clishim.py writes on its last stderr line."""
    return json.loads(proc.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1])


def _cli_oneshot(manifest: dict) -> Workload:
    root = manifest["root"]
    env = cli_env(root)
    shim = str(HERE / "clishim.py")
    wl = Workload("cli-oneshot", [])

    def cli_op(spec):
        cmd = [sys.executable, shim, *spec["argv"]]

        def run():
            tracer = wl.tracer
            spawn = tracer.spans[tracer.stack[-1]][1] if tracer is not None else None
            proc = subprocess.run(cmd, capture_output=True, cwd=root, env=env)
            if tracer is not None:
                # the shim's marks split the process into interpreter
                # start-up, import, command, and exit
                reaped = time.monotonic()
                marks = shim_report(proc)
                tracer.add("cli.interpreter", spawn, marks["start"])
                tracer.add("cli.import", marks["start"], marks["imported"])
                tracer.add(f"cli.cmd.{spec['cmd']}", marks["imported"], marks["done"])
                tracer.add("cli.interpreter", marks["done"], reaped)
            return proc

        def check(out):
            counts = {"stdout_bytes": len(out.stdout)}
            if out.returncode != 0:
                return counts, None, f"exit {out.returncode}: {out.stderr[-300:]!r}"
            wl.child_peak_kb = max(wl.child_peak_kb, shim_report(out)["peak_kb"])
            return counts, hashlib.sha256(out.stdout).hexdigest()[:16], None

        return Op(spec["key"], run, check)

    wl.ops = [cli_op(s) for s in manifest["ops"]]
    return wl
