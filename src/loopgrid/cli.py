"""Command-line front end.

Subcommands: analyze, map, sim, sweep, suite, trace.  All output is
deterministic: identical inputs produce byte-identical results.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys

# Each command imports only the modules it runs, so a one-shot process
# compiles no module it does not use.


def _grid_arg(args):
    from .grid import default_grid, load_grid

    return load_grid(args.grid) if args.grid else default_grid()


def cmd_analyze(args) -> int:
    from .analysis import describe_deps
    from .ir import load_dfg

    g = load_dfg(args.dfg)
    for line in describe_deps(g):
        print(line)
    return 0


def cmd_map(args) -> int:
    from .grid import map_graph
    from .ir import load_dfg

    g = load_dfg(args.dfg)
    config = map_graph(g, _grid_arg(args))
    print(json.dumps(config.to_json(), indent=2, sort_keys=True))
    return 0


def cmd_sim(args) -> int:
    from .sim import MachineParams, simulate  # first, as in bench.py
    from .grid import map_graph
    from .ir import load_dfg

    g = load_dfg(args.dfg)
    config = map_graph(g, _grid_arg(args))
    params = MachineParams(
        mode=args.mode,
        n_threads=args.threads,
        mem_latency=args.mem_latency,
        spill_latency=args.spill,
        mem_max_outstanding=args.mem_max_outstanding,
    )
    trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        report = simulate(config, g, params, trace=trace_fh)
    finally:
        if trace_fh:
            trace_fh.close()
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_sweep(args) -> int:
    from . import bench

    exp = bench.load_experiment(args.exp)
    curve = bench.sweep(exp)
    _write_out(args.out, curve.to_csv())
    return 0


def cmd_suite(args) -> int:
    from . import bench

    summary = bench.suite(args.dir)
    if summary.uniform_weights_warning:
        print("warning: no weights.json found, using uniform weights", file=sys.stderr)
    _write_out(args.out, summary.to_csv())
    return 0


def cmd_trace(args) -> int:
    from . import traceflow

    graphs = traceflow.ingest_file(args.infile)
    stats = traceflow.prevalence_report(graphs, min_routine_fraction=args.min_routine_frac)
    doc = stats.to_json()
    doc["coverage"] = {}
    all_routes = [rt for r in stats.routines for rt in r.routes]
    for p in args.coverage:
        k, frac = traceflow.coverage_of_routes(all_routes, p)
        doc["coverage"][f"{p:g}"] = {"routes": k, "fraction_of_routes": frac}
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        _write_out(args.out, payload + "\n")
    else:
        print(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="loopgrid",
                                 description="loop dataflow mapping and simulation")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="list loop-carried dependencies of a graph")
    p.add_argument("dfg")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("map", help="place and route a graph, print the grid config")
    p.add_argument("dfg")
    p.add_argument("--grid", default=None, help="grid spec JSON")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("sim", help="cycle-level simulation of one graph")
    p.add_argument("dfg")
    p.add_argument("--mode", choices=("baseline", "dr"), required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--grid", default=None)
    p.add_argument("--mem-latency", type=int, default=20)
    p.add_argument("--spill", type=int, default=8)
    p.add_argument("--mem-max-outstanding", type=int, default=None)
    p.add_argument("--trace", default=None, help="per-cycle event log file")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("sweep", help="thread sweep of baseline vs dr cycles")
    p.add_argument("--exp", required=True, help="experiment JSON")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("suite", help="run a fixture directory, weighted summary")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("trace", help="loop-route and prevalence analytics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--min-routine-frac", type=float, default=0.01)
    p.add_argument("--coverage", type=lambda s: [float(x) for x in s.split(",")],
                   default=[0.90, 0.95])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trace)
    return ap


def main(argv=None) -> int:
    # Freeze every object at exit, so the interpreter's shutdown collections
    # walk none of them: refcounting still frees them, and only cycles go
    # uncollected, which the OS reclaims with the process.  Registered here,
    # not at import, since long-lived processes import this module; the
    # unregister keeps it to one registration per process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # map failures to a stable nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
