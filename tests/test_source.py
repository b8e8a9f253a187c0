"""Source hygiene: every name a module imports is used in it, no module
reads the environment (the program has no hidden switches), and README's
error table lists exactly the codes the package raises."""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "loopgrid"
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
    """(exception, code) for each call of a coded error with a literal code."""
    return {(node.func.id, node.args[0].value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in CODED and node.args
            and isinstance(node.args[0], ast.Constant)}


def test_readme_lists_every_error_code():
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    table = set(re.findall(r"^\| `(\w+)` \| `([a-z-]+)` \|", readme, re.MULTILINE))
    raised = set().union(*(coded_errors(p.read_text(encoding="utf-8")) for p in MODULES))
    assert len(raised) > 30
    assert sorted(raised - table) == []  # raised but not documented
    assert sorted(table - raised) == []  # documented but never raised
