import importlib
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
