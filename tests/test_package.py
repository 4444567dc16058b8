"""The package's export lists name only what exists."""

import importlib
import pkgutil

import pytest

import gridfreq

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(gridfreq.__path__))


def test_top_level_exports_resolve_once():
    assert len(set(gridfreq.__all__)) == len(gridfreq.__all__)
    assert [n for n in gridfreq.__all__ if not hasattr(gridfreq, n)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"gridfreq.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
