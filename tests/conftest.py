import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DATA = pathlib.Path(__file__).resolve().parent / "data"
# deeper than json can decode: it raises RecursionError
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def pytest_configure(config):
    # pyproject's pythonpath setting puts ./src on this process's sys.path
    # only; the CLI tests run `python -m loopgrid.cli` in child processes
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)


@pytest.fixture
def fixtures():
    return FIXTURES


@pytest.fixture
def data_dir():
    return DATA


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


# acceptance criteria report one PASS/FAIL line each; collected here so the
# lines survive pytest's output capture and land in the terminal summary
CRITERIA_RESULTS: list[str] = []


def record_criterion(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    CRITERIA_RESULTS.append(
        f"{status} {name}" + (f" ({detail})" if detail else ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERIA_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in CRITERIA_RESULTS:
            terminalreporter.write_line(line)
