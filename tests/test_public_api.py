"""Every name a ``wrkit`` module exports, or the benchmark imports, resolves."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
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
    # benchmark, and this finds it without running a replay.
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


# Runs in a fresh interpreter: after each step, whether scipy.linalg is loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
loaded = lambda: "scipy.linalg" in sys.modules
seen = {}
import wrkit
seen["import wrkit"] = loaded()
from wrkit.harness.cli import main
seen["import wrkit.harness.cli"] = loaded()
for name in ("fig_wave_T5", "fig_wave2d_T0p24", "fig_heat_5sub_T0p2"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["preset", name, "--out", sys.argv[1]]) == 0
    seen[name] = loaded()
print(json.dumps(seen))
"""


def test_only_a_heat_march_imports_scipy_linalg(tmp_path):
    # Importing scipy.linalg costs over 300 modules and about 28 MB; the
    # heat kernel defers it to its first march, so the CLI and the wave
    # runs never load it.
    src = str(Path(wrkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == {
        "import wrkit": False,
        "import wrkit.harness.cli": False,
        "fig_wave_T5": False,
        "fig_wave2d_T0p24": False,
        "fig_heat_5sub_T0p2": True,
    }
