"""The ``sgen`` namespace: every name a submodule exports exists."""

import importlib
import pkgutil

import pytest

import sgen

MODULES = sorted(m.name for m in pkgutil.iter_modules(sgen.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"sgen.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
