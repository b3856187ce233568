"""Every module of the package defines each name it exports."""

import importlib
import pkgutil

import pytest

import mchjm

MODULES = sorted(info.name for info in pkgutil.iter_modules(mchjm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"mchjm.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"mchjm.{name}.__all__ names undefined {missing}"
