"""Every name that a module of the exitlab package lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import exitlab

MODULES = ["exitlab"] + sorted(m.name for m in pkgutil.iter_modules(exitlab.__path__, "exitlab."))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == [], name
