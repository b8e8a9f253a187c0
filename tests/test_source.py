"""Source hygiene: every name a module imports is used in it, and no module
reads the environment (the program has no hidden switches)."""

import ast
import pathlib

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
