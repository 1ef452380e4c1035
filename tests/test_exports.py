"""Every exported name must resolve.

Deleting a function without its ``__all__`` entry or its re-export in
``permprod/__init__.py`` leaves a stale name behind; ``from permprod
import *`` would then fail. This checks the package and each submodule.
"""

import importlib
import pkgutil

import pytest

import permprod

_MODULES = ["permprod"] + [
    f"permprod.{info.name}" for info in pkgutil.iter_modules(permprod.__path__)
]


@pytest.mark.parametrize("module", _MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert names, f"{module} declares no __all__"
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == []
    assert len(set(names)) == len(names)
