"""The package's public surface: every exported name exists, once, and no
module or test file imports a name it never reads."""

import ast
from pathlib import Path

import pytest

import pathsplit


def test_all_names_resolve_once():
    names = pathsplit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pathsplit, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from pathsplit import *", namespace)
    assert set(pathsplit.__all__) <= set(namespace)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


PACKAGE = Path(pathsplit.__file__).parent
TESTS = Path(__file__).parent


@pytest.mark.parametrize(
    "module",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda path: path.name if path.parent == PACKAGE else f"tests/{path.name}",
)
def test_no_unused_imports(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_reads_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os, json\n"
        "from typing import Any\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "os.getcwd()\n"
    )
    assert _unused_imports(source) == ["line 2: json", "line 3: Any"]
