"""Experiment orchestration: thread sweeps, mode comparisons, suite reports.

A sweep runs one fixture in both execution modes across a list of thread
counts and reports the speedup curve.  A suite runs every fixture in a
directory and combines per-fixture speedups into a prevalence-weighted
average.  Weights represent run-time fractions, so the combination is
harmonic (time-weighted): combined = sum(w) / sum(w / s).  All outputs are
deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import math
import os
import sys

from . import _FRESH, _Record
# sim first: compiling the largest module before the others exist keeps
# the peak resident set of a process that imports bench lower
from .sim import MachineParams, simulate
from .grid import _read_json, _require_int, load_grid, map_graph
from .ir import load_dfg

DEFAULT_THREADS = (8, 32, 128, 512)


class Experiment(_Record):
    _fields = ("dfg", "grid", "threads", "overrides")

    def __init__(self, dfg: str, grid: str | None = None,
                 threads: tuple[int, ...] = DEFAULT_THREADS, overrides: dict = _FRESH):
        self.dfg = dfg
        self.grid = grid
        self.threads = threads
        self.overrides = {} if overrides is _FRESH else overrides  # MachineParams field overrides
        if not isinstance(self.threads, (list, tuple)):
            raise ValueError(f"'threads' must be a list, got {self.threads!r}")
        for t in self.threads:
            _require_int("a 'threads' entry", t, 1)
        if not isinstance(self.overrides, dict):
            raise ValueError(f"'overrides' must be a JSON object, got {self.overrides!r}")
        self.threads = tuple(self.threads)
        if list(self.threads) != sorted(set(self.threads)):
            raise ValueError("thread counts must be strictly increasing")
        if not os.path.isfile(self.dfg):
            raise FileNotFoundError(self.dfg)
        if self.grid is not None and not os.path.isfile(self.grid):
            raise FileNotFoundError(self.grid)
        # mode and n_threads are what a sweep varies; they cannot be overridden
        for key in self.overrides:
            if key not in MachineParams._fields or key in ("mode", "n_threads"):
                raise ValueError(f"unknown machine override '{key}'")


def load_experiment(path: str) -> Experiment:
    """Read an experiment file: a JSON object with a string ``dfg``, and
    optionally a string ``grid``, a ``threads`` list and an ``overrides``
    object.  Paths resolve relative to the file; any other document, key
    or value type raises ``ValueError`` naming the key."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"experiment file must be a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in Experiment._fields:
            raise ValueError(f"unknown experiment key {key!r}")
    if "dfg" not in doc:
        raise ValueError("experiment file has no 'dfg' key")
    if not isinstance(doc["dfg"], str):
        raise ValueError(f"'dfg' must be a path string, got {doc['dfg']!r}")
    if not isinstance(doc.get("grid"), (str, type(None))):
        raise ValueError(f"'grid' must be a path string or null, got {doc['grid']!r}")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if p is None or os.path.isabs(p) else os.path.join(base, p)

    return Experiment(
        dfg=resolve(doc["dfg"]),
        grid=resolve(doc.get("grid")),
        threads=doc.get("threads", DEFAULT_THREADS),
        overrides=doc.get("overrides", {}),
    )


class SweepPoint(_Record):
    _fields = ("threads", "cycles_baseline", "cycles_dr")

    def __init__(self, threads: int, cycles_baseline: int, cycles_dr: int):
        self.threads = threads
        self.cycles_baseline = cycles_baseline
        self.cycles_dr = cycles_dr

    @property
    def speedup(self) -> float:
        return self.cycles_baseline / self.cycles_dr


class SpeedupCurve(_Record):
    _fields = ("points",)

    def __init__(self, points: list[SweepPoint]):
        self.points = points

    def to_csv(self) -> str:
        lines = ["threads,cycles_baseline,cycles_dr,speedup"]
        for p in self.points:
            lines.append(f"{p.threads},{p.cycles_baseline},{p.cycles_dr},{p.speedup:.6f}")
        return "\n".join(lines) + "\n"


def run_pair(dfg_path: str, threads: int, overrides: dict | None = None) -> SweepPoint:
    """Simulate one fixture in both modes at one thread count."""
    g = load_dfg(dfg_path)
    return _pair(g, map_graph(g), threads, overrides)


def _pair(g, config, threads: int, overrides: dict | None) -> SweepPoint:
    """Simulate a parsed and mapped graph in both modes at one thread count."""
    cycles = {}
    for mode in ("baseline", "dr"):
        params = MachineParams(mode=mode, n_threads=threads, **(overrides or {}))
        cycles[mode] = simulate(config, g, params).total_cycles
    return SweepPoint(threads, cycles["baseline"], cycles["dr"])


def sweep(exp: Experiment) -> SpeedupCurve:
    grid = load_grid(exp.grid) if exp.grid else None
    g = load_dfg(exp.dfg)
    config = map_graph(g, grid)
    return SpeedupCurve([_pair(g, config, t, exp.overrides) for t in exp.threads])


def weighted_speedup(speedups: dict[str, float], weights: dict[str, float]) -> float:
    """Time-weighted (harmonic) combination of per-fixture speedups.
    Weights too small or too large for a finite result raise ValueError."""
    total_w = sum(weights[k] for k in speedups)
    inverse = sum(weights[k] / speedups[k] for k in speedups)
    combined = total_w / inverse if inverse else math.nan
    if not math.isfinite(combined):
        raise ValueError(f"weights {weights!r} give no finite weighted speedup")
    return combined


class SuiteSummary(_Record):
    _fields = ("fixtures", "threads", "speedups", "weights", "weighted",
               "uniform_weights_warning")

    def __init__(self, fixtures: list[str], threads: tuple[int, ...],
                 speedups: dict[str, dict[int, float]], weights: dict[str, float],
                 weighted: dict[int, float], uniform_weights_warning: bool = False):
        self.fixtures = fixtures
        self.threads = threads
        self.speedups = speedups  # fixture -> threads -> speedup
        self.weights = weights
        self.weighted = weighted  # threads -> combined speedup
        self.uniform_weights_warning = uniform_weights_warning

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


def _load_weights(path: str, names: list[str]) -> dict[str, float]:
    """Read ``weights.json``: an object mapping each fixture stem in
    ``names`` to a finite, non-negative number, with a positive sum.  Any
    other document raises ``ValueError`` naming the key."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"weights.json must be a JSON object, got {type(doc).__name__}")
    weights = {}
    for name, w in doc.items():
        if name not in names:
            raise ValueError(f"weights.json weighs {name!r}, which is not a fixture here")
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise ValueError(f"weight of {name!r} must be a number, got {w!r}")
        if not 0 <= w <= sys.float_info.max:  # false for NaN as well
            raise ValueError(f"weight of {name!r} must be finite and non-negative, got {w!r}")
        weights[name] = float(w)
    missing = [n for n in names if n not in weights]
    if missing:
        raise ValueError(f"weights.json missing entries for {missing}")
    if not 0 < sum(weights.values()) < math.inf:
        raise ValueError(f"weights.json weights must have a positive, finite sum, got {doc!r}")
    return weights


def suite(fixture_dir: str, threads=DEFAULT_THREADS) -> SuiteSummary:
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
        weights = _load_weights(weights_path, names)

    speedups: dict[str, dict[int, float]] = {}
    for name in names:
        g = load_dfg(os.path.join(fixture_dir, name + ".dfg"))
        config = map_graph(g)
        speedups[name] = {t: _pair(g, config, t, None).speedup for t in threads}

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
