"""Every name a cvmaps module lists in __all__ resolves, and none twice, and
every name the package re-exports is listed by the module that defines it.

A deletion that leaves a stale export behind fails here instead of at the
first ``from cvmaps.x import *``.
"""

import importlib
import pkgutil

import pytest

import cvmaps

MODULES = ["cvmaps"] + sorted(
    f"cvmaps.{info.name}" for info in pkgutil.iter_modules(cvmaps.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve_once(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(
        n for n in set(exported) if exported.count(n) > 1)
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, missing


def test_package_exports_are_exported_by_their_home_modules():
    homes = {name: getattr(cvmaps, name).__module__ for name in cvmaps.__all__}
    unlisted = sorted(name for name, home in homes.items()
                      if name not in importlib.import_module(home).__all__)
    assert not unlisted, unlisted
