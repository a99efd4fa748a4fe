"""Every name a csrecon module exports in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import csrecon

MODULES = [importlib.import_module(f"csrecon.{info.name}")
           for info in pkgutil.iter_modules(csrecon.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"
