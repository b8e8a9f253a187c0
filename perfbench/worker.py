"""One benchmark worker: a fresh process that runs one workload's ops.

Started by ``run.py``; prints one JSON object on its last stdout line.
Ops run one at a time in a closed loop with one client and no extra
threads.  Passes over the op list repeat until the time budget is spent,
at least ``MIN_PASSES`` of them.  Each op is timed alone, on the CPU that
``cores.CORES`` found fastest; its output is checked after the timer
stops.  The worker reports every op's time in every pass; ``run.py``
reduces them to each op's best time.

With ``--trace 1`` the worker first runs untraced passes for half the
budget, then installs the spans of ``tracing.py`` and runs traced passes
for the other half, then replays the simulate calls of the first traced
pass untimed with a counting ``trace=`` writer.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

T_START = time.monotonic()
try:
    import loopgrid
    import loopgrid.cli  # noqa: F401  (the whole package, as a CLI process loads it)
except ImportError as exc:
    sys.exit(f"perfbench worker: cannot import loopgrid: {exc}")
T_IMPORTED = time.monotonic()

import workloads  # noqa: E402  (after the timed loopgrid import)
from cores import CORES  # noqa: E402

MAX_FAILURES_SHOWN = 20

# per-layer metric -> span name whose summed self time it reports
LAYER_SPANS = {
    "ir.load_dfg_self_s": "ir.load_dfg",
    "ir.parse_s": "ir.parse",
    "ir.validate_s": "ir.validate",
    "ir.reference_execute_s": "ir.reference_execute",
    "analysis.find_deps_s": "analysis.find_deps",
    "analysis.classify_s": "analysis.classify",
    "grid.map_graph_self_s": "grid.map_graph",
    "grid.place_s": "grid.place",
    "grid.route_s": "grid.route",
    "grid.attach_feedback_s": "grid.attach_feedback",
    "sim.simulate_s.baseline": "sim.simulate.baseline",
    "sim.simulate_s.dr": "sim.simulate.dr",
    "bench.run_pair_self_s": "bench.run_pair",
    "bench.suite_self_s": "bench.suite",
    "traceflow.ingest_s": "traceflow.ingest",
    "traceflow.block_accounting_s": "traceflow.total_instructions",
    "traceflow.enumerate_loops_s": "traceflow.enumerate_loops",
    "traceflow.prevalence_report_self_s": "traceflow.prevalence_report",
    "traceflow.coverage_s": "traceflow.coverage_of_routes",
}
COUNTS = ("ir.nodes", "ir.edges", "analysis.deps", "analysis.path_nodes",
          "grid.feedback_in_grid", "grid.feedback_spilled", "grid.map_refusals",
          "sim.cycles.baseline", "sim.cycles.dr", "sim.fires", "sim.stalls",
          "sim.dropped_retags", "sim.selector_drops",
          "traceflow.routes", "traceflow.truncated_routines")
CLI_COMMANDS = ("analyze", "map", "sim", "sweep", "suite", "trace")
# every span a per-layer metric reports; trace.layer_share is their self
# time over the traced pass
NAMED_SPANS = {*LAYER_SPANS.values(), "cli.interpreter", "cli.import",
               *(f"cli.cmd.{cmd}" for cmd in CLI_COMMANDS)}
INTERPRETER_PROBES = 5
# an op's best time needs at least two runs of it; the first pass also
# pays for cold caches and first-call specialisation.  More would keep
# sim-long (8-15 s a pass) far past --seconds when the host is slow.
MIN_PASSES = 2

# what the traced run measures differently from the timed passes, and why
MEASUREMENT_NOTES = {
    "sim.event_cycle_frac": "read from a counting trace= writer in an untimed replay of the "
                            "simulate calls of the first traced pass, because writing events "
                            "slows simulate",
    "sim.ii_abs_err_max": "computed in the same untimed replay, where steady_state_ii is "
                          "defined (one in-grid dependency, single-path or diverging-after)",
    "cli.*": "every cli-oneshot op runs perfbench/clishim.py, which calls loopgrid.cli.main "
             "as the loopgrid console script does and reports when its import and command "
             "ended; cli.interpreter_s is a bare `python -c pass`",
}
# named per-layer metrics that cannot be measured from outside the program
UNMEASURED: dict[str, str] = {}


class Pass:
    def __init__(self):
        self.times: list[float] = []
        self.counts: Counter = Counter()
        self.failures: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_op(op, expected: dict, p: Pass, tracer=None) -> None:
    """Time one op into ``p``, then check its output untimed."""
    CORES.settle()
    t0 = time.monotonic()
    idx = tracer.open("op", t0) if tracer is not None else None
    try:
        out, err = op.run(), None
    except Exception as exc:  # an untyped error fails the op; the run goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    t1 = time.monotonic()
    if tracer is not None:
        tracer.close(idx, t1)
    p.times.append(t1 - t0)
    if err is None:
        counts, got, err = op.check(out)
        p.counts.update(counts)
        if err is None and got != expected.get(op.key):
            err = f"digest {got}, recorded {expected.get(op.key)}"
    if err is not None:
        p.failures.append(f"{op.key}: {err}")
    p.counts["lines"] += op.lines


def run_pass(wl, expected: dict, tracer=None) -> Pass:
    p = Pass()
    for op in wl.ops:
        run_op(op, expected, p, tracer)
    return p


def run_passes(wl, expected: dict, budget: float, min_passes: int,
               tracer=None, marks=None) -> list[Pass]:
    """Run passes until another would overrun ``budget`` seconds."""
    passes = []
    start = time.monotonic()
    while True:
        first = len(tracer.spans) if tracer is not None else 0
        before = Counter(tracer.counts) if tracer is not None else None
        passes.append(run_pass(wl, expected, tracer))
        if marks is not None:
            marks.append((first, len(tracer.spans), tracer.counts - before))
            tracer.keep_sim_calls = False  # replay() needs one pass's simulations
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def layer_metrics(wl, tracer, traced: list[Pass], marks, untraced: list[Pass]) -> dict:
    per_pass = []
    for p, (first, last, counts) in zip(traced, marks):
        self_t = tracer.self_times(first, last)
        m = {metric: self_t.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
        m["bench.run_pair_reload_s"] = tracer.inclusive_under(
            first, last, ("ir.load_dfg", "grid.map_graph"), "bench.run_pair")
        m.update({name: counts.get(name, 0) for name in COUNTS})
        for mode in workloads.MODES:
            cyc = counts.get(f"sim.cycles.{mode}", 0)
            m[f"sim.host_us_per_cycle.{mode}"] = m[f"sim.simulate_s.{mode}"] / cyc * 1e6 if cyc else 0.0
        calls = sum(counts.get(f"sim.calls.{mode}", 0) for mode in workloads.MODES)
        sim_s = m["sim.simulate_s.baseline"] + m["sim.simulate_s.dr"]
        m["sim.host_us_per_call"] = sim_s / calls * 1e6 if calls else 0.0
        attempts = m["sim.fires"] + m["sim.stalls"]
        m["sim.fire_ratio"] = m["sim.fires"] / attempts if attempts else 0.0
        m["traceflow.lines_per_s"] = (p.counts["lines"] / m["traceflow.ingest_s"]
                                      if m["traceflow.ingest_s"] else 0.0)
        m["cli.stdout_bytes"] = p.counts.get("stdout_bytes", 0)
        m["trace.wall_s"] = p.wall
        m["trace.layer_share"] = sum(self_t.get(span, 0.0) for span in NAMED_SPANS) / p.wall
        per_pass.append(m)
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}

    # per-process cli spans: median over every traced op
    def durations(name):
        return [end - start for n, start, end, _ in tracer.spans if n == name]

    imports = durations("cli.import")
    out["cli.import_s"] = statistics.median(imports) if imports else T_IMPORTED - T_START
    for cmd in CLI_COMMANDS:
        d = durations(f"cli.cmd.{cmd}")
        out[f"cli.cmd_s.{cmd}"] = statistics.median(d) if d else 0.0
    # each op has two interpreter spans: start-up before the shim runs and
    # exit after the command returned
    outside = durations("cli.interpreter")
    per_process = [a + b for a, b in zip(outside[::2], outside[1::2])]
    out["cli.startup_exit_s"] = statistics.median(per_process) if per_process else 0.0
    out["cli.interpreter_s"] = interpreter_floor()

    untraced_wall = statistics.median(p.wall for p in untraced)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    out["trace.ops"] = len(wl.ops)
    out.update(replay(tracer.sim_calls))
    return out


def interpreter_floor() -> float:
    walls = []
    for _ in range(INTERPRETER_PROBES):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        walls.append(time.monotonic() - t0)
    return statistics.median(walls)


def replay(calls: list[tuple]) -> dict:
    """Untimed: event-cycle share and analytic-II error over the
    (config, graph, params) of one traced pass's simulations."""
    from loopgrid import sim
    from tracing import EventCycles

    busy = total = 0
    worst = 0.0
    for cfg, g, params in calls:
        writer = EventCycles()
        rep = sim.simulate(cfg, g, params, trace=writer)
        busy += len(writer.cycles)
        total += rep.total_cycles
        if rep.measured_ii is None:
            continue
        try:
            worst = max(worst, abs(rep.measured_ii - sim.steady_state_ii(cfg, g, params)))
        except sim.IIOracleError:
            pass
    return {"sim.event_cycle_frac": busy / total if total else 0.0, "sim.ii_abs_err_max": worst}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    src = (Path(manifest["root"]) / "src").resolve()
    where = Path(loopgrid.__file__).resolve().parent
    if where.parent != src:
        sys.exit(f"perfbench worker: loopgrid resolves to {where}, not {src}/loopgrid")
    CORES.cpus = manifest["cpus"]  # started pinned to one of them
    wl = workloads.load(manifest)
    expected = json.loads(workloads.EXPECTED.read_text(encoding="utf-8"))
    ready = time.monotonic()
    result = {"ready": ready, "loopgrid": str(where)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        untraced = run_passes(wl, expected, args.seconds / 2, 1)
        marks: list = []
        tracer.install()
        wl.tracer = tracer
        try:
            traced = run_passes(wl, expected, args.seconds / 2, 1, tracer, marks)
        finally:
            tracer.restore()
            wl.tracer = None
        result["layers"] = layer_metrics(wl, tracer, traced, marks, untraced)
        result["notes"] = MEASUREMENT_NOTES
        result["unmeasured"] = UNMEASURED
        if args.spans:
            tracer.dump(args.spans)
        passes = untraced + traced
    else:
        passes = untraced = run_passes(wl, expected, args.seconds, MIN_PASSES)

    failures = [f for p in passes for f in p.failures]
    if wl.name == "cli-oneshot":  # each op is a process of its own
        peak_kb = wl.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update({
        "walls": [p.wall for p in untraced],
        # op i's time in every untraced pass
        "op_times": [list(ts) for ts in zip(*(p.times for p in untraced))],
        "cycles_per_pass": untraced[0].counts.get("cycles", 0),
        "attempted": sum(len(p.times) for p in passes),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "peak_rss_mb": peak_kb / 1024,
        "probes": CORES.probes,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
