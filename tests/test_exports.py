import ast
import importlib
import inspect
import pkgutil

import pytest

import posediff

MODULES = sorted(m.name for m in pkgutil.iter_modules(posediff.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    """``from posediff.<name> import *`` fails on a stale ``__all__`` entry."""
    module = importlib.import_module(f"posediff.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"posediff.{name}.__all__ names missing objects: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    """Every name a module imports is read in it or listed in its ``__all__``."""
    module = importlib.import_module(f"posediff.{name}")
    tree = ast.parse(inspect.getsource(module))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - read - set(getattr(module, "__all__", ())))
    assert not unused, f"posediff.{name} imports names it never uses: {unused}"
