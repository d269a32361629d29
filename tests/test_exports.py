"""Every module of the package declares `__all__`, and every name in it
resolves: a stale entry makes ``from mfg_lab.<module> import *`` raise."""

import importlib
import pkgutil

import pytest

import mfg_lab

MODULES = ["mfg_lab", *sorted(m.name for m in pkgutil.iter_modules(mfg_lab.__path__, "mfg_lab."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
