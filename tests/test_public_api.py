"""Every name a ``wrkit`` module exports, or the benchmark imports, resolves."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

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


def test_benchmark_entry_points_resolve(monkeypatch):
    # perfbench/ imports wrkit internals and wraps the layer entry points
    # where the drivers look them up; a rename there breaks only the
    # benchmark, which the test suite does not otherwise run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    importlib.import_module("workloads")
    importlib.import_module("checks")
    broken = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in spans._ENTRY_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert not broken, f"perfbench traces {broken}, which are missing or not callable"
