"""Thread sweeps, speedup curves, and suite aggregation."""

import json

import pytest

from loopgrid.bench import (
    DEFAULT_THREADS,
    Experiment,
    SweepPoint,
    load_experiment,
    run_pair,
    suite,
    sweep,
    weighted_speedup,
)
from loopgrid.ir import DfgError

from conftest import DEEP_JSON


def test_default_thread_set():
    assert DEFAULT_THREADS == (8, 32, 128, 512)


def test_experiment_requires_increasing_threads(fixtures):
    with pytest.raises(ValueError):
        Experiment(dfg=str(fixtures / "scenario1.dfg"), threads=(32, 8))
    with pytest.raises(FileNotFoundError):
        Experiment(dfg=str(fixtures / "no_such.dfg"))


def test_load_experiment_resolves_relative_paths(fixtures):
    # dfg paths in an experiment file resolve relative to that file
    path = fixtures.parent / "tmp_exp.json"
    path.write_text(json.dumps({"dfg": "fixtures/scenario1.dfg",
                                "threads": [8, 32]}))
    try:
        exp = load_experiment(str(path))
        assert exp.threads == (8, 32)
    finally:
        path.unlink()


@pytest.mark.parametrize("key", ["bogus", "mode", "n_threads"])
def test_load_experiment_rejects_bad_overrides(fixtures, tmp_path, key):
    # an unknown MachineParams field, or one a sweep sets itself, is refused
    # up front instead of failing inside run_pair
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"dfg": str(fixtures / "scenario1.dfg"),
                                "threads": [8], "overrides": {key: 1}}))
    with pytest.raises(ValueError, match=f"'{key}'"):
        load_experiment(str(path))
    path.write_text(json.dumps({"dfg": str(fixtures / "scenario1.dfg"),
                                "threads": [8], "overrides": {"spill_latency": 4}}))
    assert load_experiment(str(path)).overrides == {"spill_latency": 4}


def test_speedup_is_cycle_ratio():
    pt = SweepPoint(threads=8, cycles_baseline=100, cycles_dr=25)
    assert pt.speedup == 4.0


def test_sweep_monotone_and_csv_stable(fixtures):
    exp = Experiment(dfg=str(fixtures / "scenario1.dfg"), threads=(8, 32, 128))
    curve = sweep(exp)
    ups = [p.speedup for p in curve.points]
    assert ups == sorted(ups)
    assert curve.to_csv().splitlines()[0] == (
        "threads,cycles_baseline,cycles_dr,speedup")
    assert curve.to_csv() == sweep(exp).to_csv()  # byte-identical repeats


def test_single_thread_speedup_near_one(fixtures):
    # with one thread there is nothing to overlap; both modes do the same work
    pt = run_pair(str(fixtures / "scenario1.dfg"), 1)
    assert 0.5 <= pt.speedup <= 1.5


def test_harmonic_weighting():
    # time-weighted: equal-time halves at 2x and 4x give 1/(.5/2+.5/4) = 8/3
    assert weighted_speedup({"a": 2.0, "b": 4.0}, {"a": 0.5, "b": 0.5}) == (
        pytest.approx(8 / 3))
    # uneven weights renormalize
    assert weighted_speedup({"a": 3.0}, {"a": 0.25}) == pytest.approx(3.0)


def test_harmonic_average_bounded_by_extremes():
    ups = {"a": 1.5, "b": 6.0, "c": 3.0}
    w = {"a": 0.2, "b": 0.5, "c": 0.3}
    avg = weighted_speedup(ups, w)
    assert min(ups.values()) < avg < max(ups.values())


def test_suite_reads_weights_and_aggregates(fixtures):
    s = suite(str(fixtures / "suite"), threads=(8, 32))
    assert not s.uniform_weights_warning
    assert set(s.speedups) == {"scenario1", "scenario1f", "scenario2",
                               "scenario3", "scenario4"}
    for t in (8, 32):
        per = {k: v[t] for k, v in s.speedups.items()}
        assert s.weighted[t] == pytest.approx(weighted_speedup(per, s.weights))
    csv = s.to_csv()
    assert csv.splitlines()[0].startswith("# weighting: harmonic")
    assert csv.splitlines()[-1].startswith("weighted_average,")
    assert csv == suite(str(fixtures / "suite"), threads=(8, 32)).to_csv()


def test_suite_uniform_fallback_without_weights(fixtures, tmp_path):
    for name in ("scenario1.dfg", "scenario2.dfg"):
        (tmp_path / name).write_text((fixtures / name).read_text())
    s = suite(str(tmp_path), threads=(8,))
    assert s.uniform_weights_warning
    assert s.weights == {"scenario1": 0.5, "scenario2": 0.5}


def test_sweep_raises_the_typed_error(data_dir):
    # a bad graph in an experiment raises the documented error, not a wrapper
    with pytest.raises(DfgError) as exc:
        sweep(Experiment(dfg=str(data_dir / "intra_cycle.dfg"), threads=(8, 32)))
    assert exc.value.code == "intra-cycle"


@pytest.mark.parametrize("doc, key", [
    (["scenario1.dfg"], "list"),
    ({"threads": [8]}, "'dfg'"),
    ({"dfg": "scenario1.dfg", "thread": [8]}, "'thread'"),
    ({"dfg": 5}, "'dfg'"),
    ({"dfg": "scenario1.dfg", "grid": ["g.json"]}, "'grid'"),
    ({"dfg": "scenario1.dfg", "threads": [[1]]}, "'threads'"),
    ({"dfg": "scenario1.dfg", "threads": [8, True]}, "'threads'"),
    ({"dfg": "scenario1.dfg", "threads": [0, 8]}, "'threads'"),
    ({"dfg": "scenario1.dfg", "threads": 8}, "'threads'"),
    ({"dfg": "scenario1.dfg", "overrides": [["spill_latency", 4]]}, "'overrides'"),
], ids=["list", "no-dfg", "unknown-key", "int-dfg", "list-grid", "nested-threads",
        "bool-thread", "zero-thread", "scalar-threads", "list-overrides"])
def test_load_experiment_refuses_malformed_documents(fixtures, tmp_path, doc, key):
    # each used to raise KeyError, TypeError or load silently with default threads
    path = tmp_path / "exp.json"
    (tmp_path / "scenario1.dfg").write_text((fixtures / "scenario1.dfg").read_text())
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=key):
        load_experiment(str(path))


def test_experiment_refuses_null_overrides(fixtures, tmp_path):
    # an omitted 'overrides' is a new empty object; null is not one
    dfg = str(fixtures / "scenario1.dfg")
    message = "'overrides' must be a JSON object, got None"
    with pytest.raises(ValueError, match=message):
        Experiment(dfg=dfg, overrides=None)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"dfg": dfg, "overrides": None}))
    with pytest.raises(ValueError, match=message):
        load_experiment(str(path))
    assert Experiment(dfg=dfg).overrides == {}


def test_load_experiment_keeps_a_null_grid(fixtures, tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"dfg": str(fixtures / "scenario1.dfg"), "grid": None}))
    exp = load_experiment(str(path))
    assert (exp.grid, exp.threads) == (None, DEFAULT_THREADS)


def test_load_experiment_refuses_deep_nesting(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(DEEP_JSON)
    with pytest.raises(ValueError, match="bad JSON"):
        load_experiment(str(path))


def _suite_dir(fixtures, tmp_path, weights) -> str:
    for name in ("scenario1.dfg", "scenario2.dfg"):
        (tmp_path / name).write_text((fixtures / name).read_text())
    (tmp_path / "weights.json").write_text(json.dumps(weights))
    return str(tmp_path)


@pytest.mark.parametrize("weights, key", [
    ([0.5, 0.5], "list"),
    ({"scenario1": True, "scenario2": 0.5}, "'scenario1'"),
    ({"scenario1": "0.5", "scenario2": 0.5}, "'scenario1'"),
    ({"scenario1": None, "scenario2": 0.5}, "'scenario1'"),
    ({"scenario1": float("nan"), "scenario2": 0.5}, "'scenario1'"),
    ({"scenario1": float("inf"), "scenario2": 0.5}, "'scenario1'"),
    ({"scenario1": -1, "scenario2": 1}, "'scenario1'"),
    ({"scenario1": 10 ** 400, "scenario2": 1}, "'scenario1'"),
    ({"scenario1": 0, "scenario2": 0.0}, "sum"),
    ({"scenario1": 1e308, "scenario2": 1e308}, "sum"),
    ({"scenario1": 0.5, "scenario2": 0.5, "scenario9": 0.1}, "'scenario9'"),
    ({"scenario1": 1.0}, "'scenario2'"),
], ids=["list", "bool", "string", "null", "nan", "inf", "negative", "huge-int", "zero-sum",
        "overflowing-sum", "unknown-fixture", "missing-fixture"])
def test_suite_refuses_malformed_weights(fixtures, tmp_path, weights, key):
    # each used to raise AttributeError, ZeroDivisionError or KeyError, or to
    # print a weighted speedup of 0.0 or nan
    with pytest.raises(ValueError, match=key):
        suite(_suite_dir(fixtures, tmp_path, weights), threads=(8,))


def test_suite_refuses_deeply_nested_weights(fixtures, tmp_path):
    fixture_dir = _suite_dir(fixtures, tmp_path, {})
    (tmp_path / "weights.json").write_text(DEEP_JSON)
    with pytest.raises(ValueError, match="bad JSON"):
        suite(fixture_dir, threads=(8,))


def test_suite_accepts_integer_and_zero_weights(fixtures, tmp_path):
    s = suite(_suite_dir(fixtures, tmp_path, {"scenario1": 0, "scenario2": 3}), threads=(8,))
    assert s.weights == {"scenario1": 0.0, "scenario2": 3.0}
    assert s.weighted[8] == pytest.approx(s.speedups["scenario2"][8])


def test_weighted_speedup_refuses_weights_with_no_finite_result():
    # a subnormal weight over a speedup above one underflows to zero
    with pytest.raises(ValueError, match="weights"):
        weighted_speedup({"a": 4.0}, {"a": 5e-324})
