"""Experiment orchestration: thread sweeps, mode comparisons, suite reports.

A sweep runs one fixture in both execution modes across a list of thread
counts and reports the speedup curve.  A suite runs every fixture in a
directory and combines per-fixture speedups into a prevalence-weighted
average.  Weights represent run-time fractions, so the combination is
harmonic (time-weighted): combined = sum(w) / sum(w / s).  All outputs are
deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .grid import GridSpec, load_grid, map_graph
from .ir import load_dfg
from .sim import MachineParams, simulate

DEFAULT_THREADS = (8, 32, 128, 512)


@dataclass
class Experiment:
    dfg: str
    grid: str | None = None
    threads: tuple[int, ...] = DEFAULT_THREADS
    overrides: dict = field(default_factory=dict)  # MachineParams field overrides

    def __post_init__(self):
        self.threads = tuple(self.threads)
        if list(self.threads) != sorted(set(self.threads)):
            raise ValueError("thread counts must be strictly increasing")
        if not os.path.exists(self.dfg):
            raise FileNotFoundError(self.dfg)
        if self.grid is not None and not os.path.exists(self.grid):
            raise FileNotFoundError(self.grid)


def load_experiment(path: str) -> Experiment:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if p is None or os.path.isabs(p) else os.path.join(base, p)

    return Experiment(
        dfg=resolve(doc["dfg"]),
        grid=resolve(doc.get("grid")),
        threads=tuple(doc.get("threads", DEFAULT_THREADS)),
        overrides=doc.get("overrides", {}),
    )


@dataclass
class SweepPoint:
    threads: int
    cycles_baseline: int
    cycles_dr: int

    @property
    def speedup(self) -> float:
        return self.cycles_baseline / self.cycles_dr


@dataclass
class SpeedupCurve:
    points: list[SweepPoint]

    def to_csv(self) -> str:
        lines = ["threads,cycles_baseline,cycles_dr,speedup"]
        for p in self.points:
            lines.append(f"{p.threads},{p.cycles_baseline},{p.cycles_dr},{p.speedup:.6f}")
        return "\n".join(lines) + "\n"


def run_pair(dfg_path: str, threads: int, grid: GridSpec | None = None,
             overrides: dict | None = None) -> SweepPoint:
    """Simulate one fixture in both modes at one thread count."""
    g = load_dfg(dfg_path)
    config = map_graph(g, grid)
    cycles = {}
    for mode in ("baseline", "dr"):
        params = MachineParams(mode=mode, n_threads=threads, **(overrides or {}))
        cycles[mode] = simulate(config, g, params).total_cycles
    return SweepPoint(threads, cycles["baseline"], cycles["dr"])


def sweep(exp: Experiment) -> SpeedupCurve:
    grid = load_grid(exp.grid) if exp.grid else None
    points = []
    for t in exp.threads:
        try:
            points.append(run_pair(exp.dfg, t, grid, exp.overrides))
        except Exception as exc:
            raise RuntimeError(f"sweep point (threads={t}) failed: {exc}") from exc
    return SpeedupCurve(points)


def weighted_speedup(speedups: dict[str, float], weights: dict[str, float]) -> float:
    """Time-weighted (harmonic) combination of per-fixture speedups."""
    total_w = sum(weights[k] for k in speedups)
    return total_w / sum(weights[k] / speedups[k] for k in speedups)


@dataclass
class SuiteSummary:
    fixtures: list[str]
    threads: tuple[int, ...]
    speedups: dict[str, dict[int, float]]  # fixture -> threads -> speedup
    weights: dict[str, float]
    weighted: dict[int, float]  # threads -> combined speedup
    uniform_weights_warning: bool = False

    def to_csv(self) -> str:
        lines = ["# weighting: harmonic (weights are run-time fractions)"]
        lines.append("fixture,weight," + ",".join(f"speedup_t{t}" for t in self.threads))
        for name in self.fixtures:
            row = [name, f"{self.weights[name]:.6f}"]
            row += [f"{self.speedups[name][t]:.6f}" for t in self.threads]
            lines.append(",".join(row))
        lines.append(
            "weighted_average,," + ",".join(f"{self.weighted[t]:.6f}" for t in self.threads)
        )
        return "\n".join(lines) + "\n"


def suite(fixture_dir: str, threads=DEFAULT_THREADS, grid: GridSpec | None = None,
          overrides: dict | None = None) -> SuiteSummary:
    """Run every .dfg fixture in a directory; weights come from weights.json
    (fixture stem -> run-time fraction), defaulting to uniform."""
    names = sorted(f[:-4] for f in os.listdir(fixture_dir) if f.endswith(".dfg"))
    if not names:
        raise FileNotFoundError(f"no .dfg fixtures in {fixture_dir}")

    weights_path = os.path.join(fixture_dir, "weights.json")
    uniform = not os.path.exists(weights_path)
    if uniform:
        weights = {n: 1.0 / len(names) for n in names}
    else:
        with open(weights_path, encoding="utf-8") as fh:
            weights = {n: float(w) for n, w in json.load(fh).items()}
        missing = [n for n in names if n not in weights]
        if missing:
            raise KeyError(f"weights.json missing entries for {missing}")

    speedups: dict[str, dict[int, float]] = {}
    for name in names:
        path = os.path.join(fixture_dir, name + ".dfg")
        speedups[name] = {}
        for t in threads:
            speedups[name][t] = run_pair(path, t, grid, overrides).speedup

    weighted = {
        t: weighted_speedup({n: speedups[n][t] for n in names}, weights) for t in threads
    }
    return SuiteSummary(
        fixtures=names,
        threads=tuple(threads),
        speedups=speedups,
        weights=weights,
        weighted=weighted,
        uniform_weights_warning=uniform,
    )
