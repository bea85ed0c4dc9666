import importlib
import pkgutil

import pytest

import jamgame

MODULES = sorted(info.name for info in pkgutil.iter_modules(jamgame.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # jamgame/__init__ and the benchmark's tracer read __all__, so a stale
    # entry breaks them.
    module = importlib.import_module(f"jamgame.{name}")
    assert module.__all__, f"jamgame.{name} has no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"jamgame.{name}.__all__ names missing attributes {missing}"
