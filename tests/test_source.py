"""Source hygiene: every name a module imports is used in it, every module
imports only the standard library and the package itself, no module reads
the environment (the program has no hidden switches), README's error table
lists exactly the codes the package raises, and every name perfbench's
traced pass replaces exists."""

import ast
import importlib.util
import pathlib
import re
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "loopgrid"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source file imports; a relative
    import counts as the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("loopgrid" if node.level else node.module.split(".")[0])
    return names


def test_imports_only_stdlib():
    # zero runtime dependencies: every module of the package (its __init__
    # too) imports only the standard library and the package, and the
    # project declares no dependency
    outside = {path.name: sorted(imported_modules(path.read_text(encoding="utf-8"))
                                 - sys.stdlib_module_names - {"loopgrid"})
               for path in sorted(SRC.glob("*.py"))}
    assert {name: mods for name, mods in outside.items() if mods} == {}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^dependencies = (.*)$", pyproject, re.MULTILINE) == ["[]"]


def environment_reads(source: str) -> list[str]:
    tree = ast.parse(source)
    return sorted(f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                  and isinstance(node.value, ast.Name) and node.value.id == "os")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


CODED = ("DfgError", "ExecError", "MapError", "IIOracleError", "Violation")


def coded_errors(source: str) -> set[tuple[str, str]]:
    """(exception, code) for each call of a coded error with a literal code,
    and for each literal ``(code, message)`` pair in ``ir._binding_faults``,
    whose faults ``_check_bindings`` raises as DfgError and ``validate``
    reports as Violation."""
    tree = ast.parse(source)
    raised = {(node.func.id, node.args[0].value) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in CODED and node.args
              and isinstance(node.args[0], ast.Constant)}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_binding_faults":
            raised |= {(exc, node.elts[0].value) for node in ast.walk(fn)
                       if isinstance(node, ast.Tuple) and len(node.elts) == 2
                       and isinstance(node.elts[0], ast.Constant)
                       for exc in ("DfgError", "Violation")}
    return raised


def test_readme_lists_every_error_code():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = set(re.findall(r"^\| `(\w+)` \| `([a-z-]+)` \|", readme, re.MULTILINE))
    raised = set().union(*(coded_errors(p.read_text(encoding="utf-8")) for p in MODULES))
    assert len(raised) > 30
    assert sorted(raised - table) == []  # raised but not documented
    assert sorted(table - raised) == []  # documented but never raised


def test_perfbench_hooks_resolve(monkeypatch):
    # a traced perfbench pass replaces each listed name in each namespace
    # that calls it; a name a refactor drops would fail only that pass
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(getattr(owner, "__name__", owner), attr)
               for attr, owners in tracing.PATCHES.values() for owner in owners
               if not hasattr(owner, attr)]
    assert missing == []
    # steady_state_ii calls find_deps and classify by sim's own names, so a
    # pass that replaces them there sees its calls
    from loopgrid import analysis, grid, ir, sim, traceflow
    calls = []

    def spy(name):
        real = getattr(sim, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("find_deps", "classify"):
        monkeypatch.setattr(sim, name, spy(name))
    g = ir.load_dfg(str(ROOT / "fixtures" / "scenario1.dfg"))
    sim.steady_state_ii(grid.map_graph(g), g, sim.MachineParams(mode="dr", n_threads=8))
    assert sorted(set(calls)) == ["classify", "find_deps"]
    # each counter reads attributes off its span's result (a property such as
    # GridConfig.baseline_only among them); scenario5's deps are consecutive,
    # so all three spill
    g = ir.parse_dfg((ROOT / "fixtures" / "scenario5.dfg").read_text())
    cfg = grid.map_graph(g)
    results = {
        "ir.parse": g,
        "analysis.find_deps": analysis.find_deps(g),
        "grid.attach_feedback": cfg,
        "sim.simulate": sim.simulate(cfg, g, sim.MachineParams(mode="dr", n_threads=8)),
        "traceflow.prevalence_report": traceflow.prevalence_report(
            traceflow.ingest_file(str(ROOT / "fixtures" / "traces" / "coverage90.trc"))),
    }
    counts = Counter()
    for span, count in tracing._COUNTERS.items():
        count(counts, results[span])
    assert counts == {
        "ir.nodes": 6, "ir.edges": 8, "analysis.deps": 3, "analysis.path_nodes": 9,
        "grid.feedback_in_grid": 0, "grid.feedback_spilled": 3,
        "sim.cycles.dr": 143, "sim.calls.dr": 1, "sim.fires": 48, "sim.stalls": 400,
        "sim.dropped_retags": 4, "sim.selector_drops": 0,
        "traceflow.routes": 15, "traceflow.truncated_routines": 0,
    }
