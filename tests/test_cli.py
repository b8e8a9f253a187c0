"""Command-line entry points: behavior, formats, and determinism."""

import gc
import json
import subprocess
import sys

import pytest

from loopgrid.cli import main
from loopgrid.grid import default_grid
from loopgrid.ir import format_dfg

from _random_graphs import random_dfg
from conftest import DEEP_JSON

CLI = [sys.executable, "-m", "loopgrid.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc.stdout


def test_import_adds_only_stdlib_modules():
    # no runtime dependencies: importing every module of the package in a
    # fresh interpreter adds no top-level module from outside the standard library
    # (compared before/after, since start-up .pth hooks load modules of their own)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import loopgrid, loopgrid.analysis, loopgrid.bench, loopgrid.cli, loopgrid.grid\n"
        "import loopgrid.ir, loopgrid.sim, loopgrid.traceflow\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(*sorted(new - set(sys.stdlib_module_names) - {'loopgrid'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def loaded_modules(code: str, cwd=None) -> list[str]:
    """The loopgrid modules a fresh interpreter holds after running ``code``."""
    code += ("\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.startswith('loopgrid')),\n"
             "      file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.split()


def test_package_import_loads_no_submodule():
    assert loaded_modules("import loopgrid") == ["loopgrid"]


FRONT_END = ["loopgrid.analysis", "loopgrid.ir"]
SIMULATOR = FRONT_END + ["loopgrid.grid", "loopgrid.sim"]


# the criterion-7 invocations and the modules each loads; EXP stands for an
# experiment file
COMMANDS = [
    (["analyze", "fixtures/scenario3.dfg"], FRONT_END),
    (["map", "fixtures/scenario2.dfg"], FRONT_END + ["loopgrid.grid"]),
    (["sim", "fixtures/scenario4.dfg", "--mode", "dr", "--threads", "32"], SIMULATOR),
    (["sweep", "--exp", "EXP", "--out", "-"], SIMULATOR + ["loopgrid.bench"]),
    (["suite", "--dir", "fixtures/suite", "--out", "-"], SIMULATOR + ["loopgrid.bench"]),
    (["trace", "--in", "fixtures/traces/coverage90.trc", "--coverage", "0.90,0.95"],
     ["loopgrid.traceflow"]),
]
COMMAND_IDS = [args[0] for args, _ in COMMANDS]


def command_code(args, fixtures, tmp_path) -> str:
    """Code that imports ``loopgrid.cli`` and runs one invocation through
    ``main``, its output discarded; run it from the fixtures' parent."""
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"dfg": str(fixtures / "scenario1.dfg"), "threads": [8, 32]}))
    argv = [str(exp) if a == "EXP" else a for a in args]
    return ("import contextlib, io, loopgrid.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert loopgrid.cli.main({argv!r}) == 0\n")


@pytest.mark.parametrize("args, modules", COMMANDS, ids=COMMAND_IDS)
def test_each_command_loads_only_the_modules_it_runs(fixtures, tmp_path, args, modules):
    got = loaded_modules(command_code(args, fixtures, tmp_path), cwd=fixtures.parent)
    assert got == sorted(["loopgrid", "loopgrid.cli"] + modules)


@pytest.mark.parametrize("args", [args for args, _ in COMMANDS], ids=COMMAND_IDS)
def test_no_command_imports_dataclasses_or_inspect(fixtures, tmp_path, args):
    # the records are NamedTuples and plain classes, so a one-shot process
    # neither imports dataclasses (which imports inspect) nor compiles the
    # methods it generates; compared with the modules held before the import
    # of loopgrid.cli, since start-up .pth hooks load modules of their own
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            + command_code(args, fixtures, tmp_path)
            + "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=fixtures.parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_a_cli_process_freezes_the_collector_once_at_exit(fixtures):
    # atexit handlers run last in, first out, so a probe registered before
    # main runs after main's freeze and sees what the interpreter's shutdown
    # collections would walk; gc.freeze is wrapped to count its calls
    code = ("import atexit, gc, sys\n"
            "freeze, calls = gc.freeze, []\n"
            "gc.freeze = lambda: calls.append(freeze())\n"
            "atexit.register(lambda: print(len(calls), gc.get_freeze_count(), file=sys.stderr))\n"
            "import loopgrid.cli\n"
            f"argv = ['analyze', {str(fixtures / 'scenario3.dfg')!r}]\n"
            "sys.exit(loopgrid.cli.main(argv) or loopgrid.cli.main(argv))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("dep ")  # still flushed after the freeze
    calls, frozen = map(int, proc.stderr.split())
    assert calls == 1 and frozen > 1000


def test_main_leaves_the_collector_running(fixtures, capsys):
    # main only registers the freeze: a process that goes on after it keeps
    # collecting and holds no frozen object
    before = gc.isenabled(), gc.get_freeze_count()
    for _ in range(2):
        assert main(["analyze", str(fixtures / "scenario3.dfg")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert capsys.readouterr().out.startswith("dep ")


def test_lazy_package_exports():
    import loopgrid

    for name in loopgrid.__all__:
        obj = getattr(loopgrid, name)
        assert obj.__module__ in ("loopgrid.analysis", "loopgrid.grid", "loopgrid.ir",
                                  "loopgrid.sim"), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from loopgrid import *", namespace)
    assert set(loopgrid.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        loopgrid.no_such_name


def test_analyze_line_format(fixtures):
    out = run_cli("analyze", str(fixtures / "scenario3.dfg"))
    assert out.splitlines() == [
        "dep 4->3 slot=0 diff=1 pattern=DivergingBefore mem=0 path_len=2"
    ]


def test_map_emits_placement_json(fixtures):
    out = json.loads(run_cli("map", str(fixtures / "scenario1.dfg")))
    assert set(out) >= {"placement", "routes", "feedback"}
    assert out["feedback"][0]["consumer"] == 1


def test_sim_reports_results(fixtures):
    out = json.loads(run_cli("sim", str(fixtures / "scenario1.dfg"),
                             "--mode", "dr", "--threads", "8"))
    assert out["measured_ii"] == 2.0
    assert [lo["1"] for lo in out["live_out"]] == list(range(1, 9))


def test_sim_trace_matches_golden(fixtures, data_dir, tmp_path):
    for mode in ("dr", "baseline"):
        got = tmp_path / f"{mode}.trace"
        run_cli("sim", str(fixtures / "accumulator.dfg"),
                "--mode", mode, "--threads", "4", "--trace", str(got))
        golden = (data_dir / f"accumulator_{mode}_t4.trace").read_text()
        assert got.read_text() == golden, mode


def test_sweep_csv(fixtures, tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({
        "dfg": str(fixtures / "scenario1.dfg"), "threads": [8, 32]}))
    out = tmp_path / "curve.csv"
    run_cli("sweep", "--exp", str(exp), "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "threads,cycles_baseline,cycles_dr,speedup"
    assert len(lines) == 3


def test_suite_csv(fixtures, tmp_path):
    out = tmp_path / "suite.csv"
    run_cli("suite", "--dir", str(fixtures / "suite"), "--out", str(out))
    text = out.read_text()
    assert text.splitlines()[0].startswith("# weighting: harmonic")
    assert "weighted_average" in text


def test_trace_reports_coverage(fixtures):
    out = json.loads(run_cli("trace", "--in",
                             str(fixtures / "traces/looptime.trc"),
                             "--coverage", "0.90"))
    assert out["loop_fraction"] == 0.239
    assert out["coverage"]["0.9"]["routes"] == 1


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "fixtures/scenario3.dfg"),
        ("map", "fixtures/scenario2.dfg"),
        ("sim", "fixtures/scenario4.dfg", "--mode", "baseline",
         "--threads", "16"),
        ("trace", "--in", "fixtures/traces/coverage90.trc",
         "--coverage", "0.90,0.95"),
    ],
)
def test_repeat_runs_byte_identical(fixtures, args):
    root = fixtures.parent
    resolved = [a if a.startswith("-") or not a.startswith("fixtures/")
                else str(root / a) for a in args]
    assert run_cli(*resolved) == run_cli(*resolved)


@pytest.mark.parametrize("frac", ["2", "-0.5", "nan"])
def test_trace_refuses_a_routine_cutoff_outside_the_unit_interval(fixtures, frac):
    proc = subprocess.run(CLI + ["trace", "--in", str(fixtures / "traces/looptime.trc"),
                                 "--min-routine-frac", frac], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: min_routine_fraction") and proc.stderr.count("\n") == 1


def test_bad_input_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.dfg"
    bad.write_text("node 0 bogus\n")
    proc = subprocess.run(CLI + ["analyze", str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.strip()


@pytest.mark.parametrize("cmd", [["analyze"], ["map"], ["sim", "--mode", "dr", "--threads", "4"]],
                         ids=["analyze", "map", "sim"])
def test_intra_cycle_exits_nonzero(data_dir, cmd):
    proc = subprocess.run(CLI + cmd + [str(data_dir / "intra_cycle.dfg")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: intra-cycle")


@pytest.mark.parametrize("cmd", [["map"], ["sim", "--mode", "dr", "--threads", "8"],
                                 ["sim", "--mode", "baseline", "--threads", "8"]],
                         ids=["map", "sim-dr", "sim-baseline"])
def test_memory_carried_exits_nonzero(data_dir, cmd):
    proc = subprocess.run(CLI + cmd + [str(data_dir / "memory_carried.dfg")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: memory-carried")


@pytest.mark.parametrize("cmd", [["map"], ["sim", "--mode", "dr", "--threads", "8"],
                                 ["sim", "--mode", "baseline", "--threads", "8"]],
                         ids=["map", "sim-dr", "sim-baseline"])
def test_computed_address_exits_nonzero(data_dir, cmd):
    proc = subprocess.run(CLI + cmd + [str(data_dir / "computed_address.dfg")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: memory-carried: load 2 and store 5 can both use "
                           "the address node 1 computes\n")


def test_sweep_keeps_the_error_code(data_dir, tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"dfg": str(data_dir / "intra_cycle.dfg"), "threads": [8]}))
    proc = subprocess.run(CLI + ["sweep", "--exp", str(exp), "--out", str(tmp_path / "c.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: intra-cycle")


def test_sweep_refuses_an_unknown_override(fixtures, tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"dfg": str(fixtures / "scenario1.dfg"), "threads": [8],
                               "overrides": {"bogus": 1}}))
    proc = subprocess.run(CLI + ["sweep", "--exp", str(exp), "--out", str(tmp_path / "c.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: unknown machine override 'bogus'\n"


@pytest.mark.parametrize("doc", [{"threads": [8.5]},
                                 {"threads": [8], "overrides": {"spill_latency": 1.5}}],
                         ids=["float-threads", "float-spill"])
def test_sweep_refuses_non_integer_machine_parameters(fixtures, tmp_path, doc):
    # these used to deadlock, or print a curve with fractional cycles
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"dfg": str(fixtures / "scenario1.dfg"), **doc}))
    proc = subprocess.run(CLI + ["sweep", "--exp", str(exp), "--out", "-"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "must be an integer" in lines[0]


def test_livein_on_fed_slot_exits_nonzero(tmp_path):
    # the simulator never validates, so the parser must refuse the second feeder
    path = tmp_path / "g.dfg"
    path.write_text("node 0 const 1\nnode 1 add\nedge 0 1 0\nedge 0 1 1\n"
                    "livein a 1 0 5\nliveout 1\n")
    proc = subprocess.run(CLI + ["sim", "--mode", "dr", "--threads", "4", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: duplicate-slot")


@pytest.mark.parametrize("spec", [{"hop_latency": -1}, {"latencies": {"alu": 0}},
                                  {"token_buffer_depth": 0}],
                         ids=["hop", "alu", "depth"])
def test_unschedulable_grid_spec_exits_nonzero(fixtures, tmp_path, spec):
    # these specs used to make `sim` loop forever, so a hang fails on the timeout
    grid = tmp_path / "g.json"
    grid.write_text(json.dumps({**default_grid().to_json(), **spec}))
    proc = subprocess.run(CLI + ["sim", str(fixtures / "accumulator.dfg"), "--grid", str(grid),
                                 "--mode", "dr", "--threads", "4"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_deeply_nested_grid_spec_exits_nonzero(fixtures, tmp_path):
    grid = tmp_path / "deep.json"
    grid.write_text(DEEP_JSON)
    proc = subprocess.run(CLI + ["map", str(fixtures / "scenario1.dfg"), "--grid", str(grid)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: bad JSON: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("feed", ["edge 0 1 4", "livein z 1 7 3"], ids=["edge", "livein"])
def test_missing_slot_exits_nonzero(tmp_path, feed):
    path = tmp_path / "g.dfg"
    path.write_text(f"node 0 const 1\nnode 1 add\nedge 0 1 0\n{feed}\nliveout 1\n")
    proc = subprocess.run(CLI + ["sim", "--mode", "dr", "--threads", "4", str(path)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: arity-mismatch")


def test_unfed_slot_exits_nonzero(tmp_path):
    # the unfed node feeds no live-out, so an unchecked run would print a report
    g = random_dfg(2)
    del g.live_in["in2"]
    path = tmp_path / "g.dfg"
    path.write_text(format_dfg(g))
    proc = subprocess.run(CLI + ["sim", "--mode", "dr", "--threads", "4", str(path)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: unfed-slot")


@pytest.mark.parametrize("feeds, code", [("edge 0 1 0\nedge 0 1 4", "arity-mismatch"),
                                         ("edge 0 1 0", "unfed-slot")],
                         ids=["missing-slot", "unfed-slot"])
def test_map_and_analyze_refuse_what_sim_refuses(tmp_path, feeds, code):
    path = tmp_path / "g.dfg"
    path.write_text(f"node 0 const 1\nnode 1 add\n{feeds}\nliveout 1\n")
    sim, *others = [subprocess.run(CLI + [*cmd, str(path)], capture_output=True, timeout=30)
                    for cmd in (["sim", "--mode", "dr", "--threads", "4"], ["map"], ["analyze"])]
    assert sim.returncode == 1
    assert sim.stderr.startswith(f"error: {code}: ".encode())
    assert [(p.returncode, p.stderr) for p in others] == [(1, sim.stderr)] * 2


def test_unseeded_back_edge_off_live_out_paths_exits_nonzero(tmp_path):
    # node 1's back edge has no livein and node 1 feeds no live-out
    path = tmp_path / "g.dfg"
    path.write_text("node 0 const 1\nnode 1 add\nedge 0 1 0\nback 1 1 1 1\n"
                    "node 2 add\nedge 0 2 0\nedge 0 2 1\nliveout 2\n")
    proc = subprocess.run(CLI + ["sim", "--mode", "baseline", "--threads", "2", str(path)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: missing-livein")
