"""loopgrid benchmark: one command, four workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

A run generates the workload's inputs from ``--seed`` under ``.perfbench/``,
measures set-up time over several fresh worker processes, then runs the
workload in one more worker for ``--seconds``.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``).  Every result is also appended, with
its provenance, to ``.perfbench/results.jsonl``; ``--compare`` reads two
such files.  The exit code is 0 only when every op's output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from cores import CORES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5  # setup-only workers per run, besides the measuring worker
WORKER_TIMEOUT_S = 150
TAIL_PERCENTILE = 99  # op_tail_ms: this percentile of the ops' best times
# The host-speed probe (cores.py) takes about this long on one vCPU of a
# 2 GHz Xeon VM in a quiet period.  End-to-end times are scaled to it.
REF_PROBE_S = 1.25e-3


def die(msg: str) -> None:
    sys.exit(f"perfbench: {msg}")


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def spawn_worker(manifest: Path, args, setup_only: bool,
                 spans: Path | None) -> tuple[float, float, dict]:
    """Start a fresh worker; returns (its set-up time, the host-speed probe
    taken just before it started, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = workloads.cli_env(str(ROOT))
    probe = CORES.settle(force=True)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"worker took longer than {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.decode().rstrip("\n").rsplit("\n", 1)[-1])
    return result["ready"] - t0, probe, result


def end_to_end(res: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(end-to-end metric values, extra figures that are printed but not gated).

    Each op's time is its best over the run's passes: on a shared host a
    neighbour's burst slows some runs of an op by tens of percent, and the
    best of several runs spread over the whole run is far steadier than
    one pass or a median over passes.  The host itself also runs up to
    twice as slow for minutes at a time, so every time is then scaled by
    REF_PROBE_S over the median probe time of the run (of the probe taken
    just before it, for a set-up time).  The unscaled times are printed
    as ``raw_*``."""
    best = sorted(min(ts) for ts in res["op_times"])
    tail = statistics.quantiles(best, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": tail * 1e3,
    }
    speed = REF_PROBE_S / statistics.median(res["probes"])
    values = {name: v * speed for name, v in raw.items()}
    values["setup_s"] = statistics.median(s * REF_PROBE_S / p for s, p in setups)
    values["peak_rss_mb"] = res["peak_rss_mb"]
    extra = {
        **{f"raw_{name}": v for name, v in raw.items()},
        "host_speed": speed,
        "op_tail_percentile": TAIL_PERCENTILE,
        "op_count": len(best),
        "passes": len(res["walls"]),
        "raw_pass_wall_median_s": statistics.median(res["walls"]),
        "setup_samples": len(setups),
        "failed_frac": res["failed"] / res["attempted"],
    }
    if res["cycles_per_pass"]:
        extra["sim_cycles_per_s"] = res["cycles_per_pass"] / raw["wall_s"]
    return values, extra


def run(args) -> int:
    if not (ROOT / "src" / "loopgrid" / "__init__.py").is_file():
        die(f"{ROOT} holds no src/loopgrid; run from a loopgrid checkout")
    if not (ROOT / "fixtures").is_dir():
        die(f"{ROOT} holds no fixtures/")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    prov = provenance()

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = None
    if args.trace:
        (out_dir / "spans").mkdir(exist_ok=True)
        spans = out_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        manifest = work / "manifest.json"
        # every worker starts pinned to the CPU settled on before its start
        manifest.write_text(json.dumps({**workloads.prepare(args.workload, args.seed, work, ROOT),
                                        "cpus": CORES.cpus}), encoding="utf-8")
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn_worker(manifest, args, True, None)[:2])
        setup, probe, res = spawn_worker(manifest, args, False, spans)
        setups.append((setup, probe))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov["loopgrid"] = res["loopgrid"]

    if args.trace:
        values, extra = res["layers"], {"notes": res["notes"], "unmeasured": res["unmeasured"]}
    else:
        values, extra = end_to_end(res, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die(f"no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for k, v in prov.items():
        print(f"  {k}: {v}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    for k, v in extra.items():
        print(f"  {k}: {v:.6g}" if isinstance(v, float) else f"  {k}: {v}")
    for f in res["failures"]:
        print(f"  FAILED {f}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "extra": extra,
              "attempted": res["attempted"], "failed": res["failed"], "provenance": prov}
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# compare


def _load_results(path: str) -> dict:
    groups: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    groups[(rec["workload"], rec["trace"])][name].append(m["value"])
    return groups


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(old_path: str, new_path: str) -> int:
    """Print, per workload and metric, each side's median and quartiles and the change."""
    old, new = _load_results(old_path), _load_results(new_path)
    for key in sorted(set(old) | set(new)):
        workload, trace = key
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'})")
        print(f"  {'metric':36s} {'old median [q1, q3]':>34s} {'new median [q1, q3]':>34s}  change")
        for name in sorted(set(old[key]) | set(new[key])):
            cols = []
            for side in (old[key].get(name), new[key].get(name)):
                if side:
                    q1, med, q3 = _quartiles(side)
                    cols.append((med, f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(side)}"))
                else:
                    cols.append((None, "-"))
            (m_old, s_old), (m_new, s_new) = cols
            change = (f"{(m_new - m_old) / m_old:+.1%}" if m_old and m_new is not None
                      else "-")
            print(f"  {name:36s} {s_old:>34s} {s_new:>34s}  {change}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two results.jsonl files instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
