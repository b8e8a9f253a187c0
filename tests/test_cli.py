"""Command-line entry points: behavior, formats, and determinism."""

import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "loopgrid.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc.stdout


def test_import_adds_only_stdlib_modules():
    # no runtime dependencies: importing the package and its CLI in a fresh
    # interpreter adds no top-level module from outside the standard library
    # (compared before/after, since start-up .pth hooks load modules of their own)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import loopgrid, loopgrid.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(*sorted(new - set(sys.stdlib_module_names) - {'loopgrid'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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


def test_bad_input_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.dfg"
    bad.write_text("node 0 bogus\n")
    proc = subprocess.run(CLI + ["analyze", str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.strip()
