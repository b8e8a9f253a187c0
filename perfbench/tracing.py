"""Spans around calls into loopgrid's public functions, installed from outside.

A traced pass replaces each listed function in the module namespaces it is
looked up from (``grid.find_deps`` and ``analysis.find_deps`` are separate
names) with a wrapper that records a span and, at some boundaries, counts
taken from the result.  Nothing inside ``src/`` changes; restoring puts
the original objects back.  Spans are kept in memory as
``(name, start, end, parent)`` and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from loopgrid import analysis, bench, grid, ir, sim, traceflow

# span name -> (function name, namespaces that call it by that name)
PATCHES = {
    "ir.load_dfg": ("load_dfg", (ir, bench)),
    "ir.parse": ("parse_dfg", (ir,)),
    "ir.validate": ("validate", (ir,)),
    "ir.reference_execute": ("reference_execute", (ir,)),
    "analysis.find_deps": ("find_deps", (analysis, grid, sim)),
    "analysis.classify": ("classify", (analysis, grid)),
    "grid.map_graph": ("map_graph", (grid, bench)),
    "grid.place": ("place", (grid,)),
    "grid.route": ("route", (grid,)),
    "grid.attach_feedback": ("attach_feedback", (grid,)),
    "sim.simulate": ("simulate", (sim, bench)),
    "bench.run_pair": ("run_pair", (bench,)),
    "bench.suite": ("suite", (bench,)),
    "traceflow.ingest": ("ingest_file", (traceflow,)),
    "traceflow.prevalence_report": ("prevalence_report", (traceflow,)),
    "traceflow.enumerate_loops": ("enumerate_loops", (traceflow,)),
    "traceflow.coverage_of_routes": ("coverage_of_routes", (traceflow,)),
    "traceflow.total_instructions": ("total_instructions", (traceflow.RoutineGraph,)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        # (config, graph, params) of each traced simulate call while
        # keep_sim_calls is set, for the worker's untimed replay
        self.sim_calls: list[tuple] = []
        self.keep_sim_calls = True
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.monotonic() if start is None else start, None, parent])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, end: float | None = None) -> None:
        self.spans[idx][2] = time.monotonic() if end is None else end
        self.stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished child span of the open span (times measured elsewhere)."""
        self.spans.append([name, start, end, self.stack[-1] if self.stack else -1])

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Self time per span name over spans[first:last]: duration minus
        the durations of direct children."""
        out: Counter = Counter()
        for name, start, end, _parent in self.spans[first:last]:
            out[name] += end - start
        for name, start, end, parent in self.spans[first:last]:
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def inclusive_under(self, first: int, last: int, names, parent_name: str) -> float:
        """Summed duration of spans named in ``names`` whose parent is ``parent_name``."""
        return sum((end - start for name, start, end, parent in self.spans[first:last]
                    if name in names and parent >= 0 and self.spans[parent][0] == parent_name), 0.0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        for span, (attr, owners) in PATCHES.items():
            for owner in owners:
                orig = getattr(owner, attr)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(span, orig))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, span: str, orig):
        tracer = self
        count = _COUNTERS.get(span)
        by_mode = span == "sim.simulate"

        def wrapper(*args, **kwargs):
            name = span
            if by_mode:
                call = tuple(args[i] if i < len(args) else kwargs[k]
                             for i, k in enumerate(("config", "dfg", "params")))
                name = f"{span}.{call[2].mode}"
                if tracer.keep_sim_calls:
                    tracer.sim_calls.append(call)
            idx = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            except grid.MapError:
                if span == "grid.map_graph":
                    tracer.counts["grid.map_refusals"] += 1
                raise
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counts, result)
            return result

        return wrapper


def _count_parse(c, g):
    c["ir.nodes"] += len(g.nodes)
    c["ir.edges"] += len(g.edges)


def _count_deps(c, deps):
    c["analysis.deps"] += len(deps)
    c["analysis.path_nodes"] += sum(len(d.dependent_path) for d in deps)


def _count_feedback(c, cfg):
    c["grid.feedback_in_grid"] += len(cfg.feedback)
    c["grid.feedback_spilled"] += len(cfg.baseline_only)


def _count_sim(c, rep):
    c[f"sim.cycles.{rep.mode}"] += rep.total_cycles
    c[f"sim.calls.{rep.mode}"] += 1
    c["sim.fires"] += sum(rep.fires.values())
    c["sim.stalls"] += sum(rep.stalls.values())
    c["sim.dropped_retags"] += rep.dropped_retags
    c["sim.selector_drops"] += rep.selector_drops


def _count_report(c, stats):
    c["traceflow.routes"] += sum(len(r.routes) for r in stats.routines)
    c["traceflow.truncated_routines"] += sum(r.truncated for r in stats.routines)


_COUNTERS = {
    "ir.parse": _count_parse,
    "analysis.find_deps": _count_deps,
    "grid.attach_feedback": _count_feedback,
    "sim.simulate": _count_sim,
    "traceflow.prevalence_report": _count_report,
}


class EventCycles:
    """A ``trace=`` writer for ``simulate`` that keeps the cycles holding at
    least one fire, complete, retag or drop event (stalls do not count)."""

    def __init__(self):
        self.cycles: set[str] = set()

    def write(self, line: str) -> None:
        head, _, rest = line.partition(" ")
        if "event=stall" not in rest:
            self.cycles.add(head)
