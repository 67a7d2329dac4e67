"""The package's public surface: every exported name exists, once, its
version is the one pyproject.toml declares, no module or test file
imports a name it never reads, every private module-level name of
the package is read somewhere in it, and no module reads ``.packets``."""

import ast
import re
from pathlib import Path

import pytest

import pathsplit


def test_all_names_resolve_once():
    names = pathsplit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pathsplit, name)]
    assert missing == []


def test_pyproject_declares_the_package_version():
    # a version bump edits both by hand
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    declared = re.search(r'^version\s*=\s*"([^"]*)"', project, re.M).group(1)
    assert declared == pathsplit.__version__


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


def _private_names(source: str) -> set[str]:
    """The ``_name``s a module defines at its top level, dunders aside."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _read_names(source: str) -> set[str]:
    """The names a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_every_private_module_name_is_read_in_the_package():
    # a helper a refactor leaves behind is dead code
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    read = set().union(*map(_read_names, sources))
    defined = set().union(*map(_private_names, sources))
    assert sorted(defined - read) == []


def test_private_name_check_sees_defs_and_reads():
    source = (
        "_LIMIT = 3\n"
        "_a, (_b, c) = 1, (2, 3)\n"
        "def _used(): return _LIMIT\n"
        "def _orphan(): pass\n"
        "class _Kind: pass\n"
        "def __getattr__(name): pass\n"
        "x = _used() + obj._b\n"
    )
    assert _private_names(source) == {"_LIMIT", "_a", "_b", "_used", "_orphan", "_Kind"}
    assert _private_names(source) - _read_names(source) == {"_a", "_orphan", "_Kind"}


def _packets_reads(source: str) -> list[int]:
    """The lines on which a module reads an attribute called ``packets``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "packets")


def test_no_module_reads_trace_packets():
    # Trace.packets builds a tuple of every packet on each read, so a
    # reader on the load, split or feature path would cost O(n) per call
    assert _packets_reads("def packets(self): pass\nn = len(t.packets)\n") == [2]
    reads = {path.name: _packets_reads(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in reads.items() if lines} == {}
