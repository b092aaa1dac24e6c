"""Public names: every ``__all__`` entry exists, and the package re-exports only listed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import phasejump

MODULES = sorted(info.name for info in pkgutil.iter_modules(phasejump.__path__))


def _package_imports():
    """(module, name) for every ``from .module import name`` in phasejump/__init__.py."""
    tree = ast.parse(Path(phasejump.__file__).read_text())
    return [(node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_exists(module):
    mod = importlib.import_module(f"phasejump.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_only_listed_names():
    imports = _package_imports()
    assert imports
    unlisted = [f"{module}.{name}" for module, name in imports
                if name not in getattr(importlib.import_module(f"phasejump.{module}"), "__all__", ())]
    assert unlisted == []
