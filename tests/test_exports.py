"""Every public name the package advertises resolves.

A deleted function can leave its name behind in a module's ``__all__`` or in
the package's re-exports; ``from swapsched.x import *`` then fails at import
time in the caller. These checks catch such stale entries.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import swapsched

MODULES = sorted(m.name for m in pkgutil.iter_modules(swapsched.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"swapsched.{name}")
    listed = getattr(module, "__all__", [])
    assert [n for n in listed if not hasattr(module, n)] == []
    assert len(set(listed)) == len(listed)


def _package_reexports():
    """``(module, name)`` for each ``from .module import name`` in the package."""
    tree = ast.parse(Path(swapsched.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


def test_package_reexports_resolve():
    reexports = _package_reexports()
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"swapsched.{module_name}")
        assert getattr(swapsched, name) is getattr(module, name), name
        assert name in module.__all__, f"{module_name}.{name}"
