"""The package's public surface: every exported name exists, once."""

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
