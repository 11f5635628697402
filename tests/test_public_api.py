"""Every name a ``wrkit`` module exports through ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import wrkit

MODULES = ["wrkit"] + [
    info.name for info in pkgutil.walk_packages(wrkit.__path__, prefix="wrkit.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"
