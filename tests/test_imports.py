"""Every module of the package, bar __init__, uses each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bvmsheaf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements (at any depth, bar __future__)
    that no Name node or dotted attribute base of the module reads."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from os import path, sep\nimport json\nimport a.b\n"
              "def f():\n    from re import compile\n    return sep, a.b\n")
    assert unused_imports(source) == [
        "line 1: path", "line 2: json", "line 5: compile"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert MODULES and unused_imports(path.read_text(encoding="utf-8")) == []
