import importlib
import pkgutil

import pytest

import axicav

MODULES = sorted(m.name for m in pkgutil.iter_modules(axicav.__path__, "axicav."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
