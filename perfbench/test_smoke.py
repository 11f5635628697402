"""Smoke test of the benchmark on small grids.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q

Every metric the benchmark defines must be printed with its unit, no
replay may fail, and the last line must carry exactly the metrics that
BENCHMARK.json declares for the run's trace mode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "wall_s": "s",
    "sweep_ms": "ms",
    "sweeps": "count",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}

PER_LAYER_UNITS = {
    **{
        f"{layer}.{name}": unit
        for layer in ("heat", "wave", "strip")
        for name, unit in (
            ("solve_calls", "count"),
            ("solve_s", "s"),
            ("step_us", "us"),
            ("flux_calls", "count"),
            ("flux_s", "s"),
        )
    },
    "strip.node_updates_per_s": "1/s",
    "mono.calls": "count",
    "mono.s": "s",
    "proj.plan_calls": "count",
    "proj.plan_s": "s",
    "proj.apply_calls": "count",
    "proj.apply_s": "s",
    "proj.plan_reuse": "ratio",
    "relax.calls": "count",
    "relax.s": "s",
    "driver.self_s": "s",
    "driver.solves_per_sweep": "solves/sweep",
    "sweeps.dnwr": "count",
    "sweeps.nnwr": "count",
    "sweeps.swr_classical": "count",
    "bounds.calls": "count",
    "bounds.s": "s",
    "harness.setup_s": "s",
    "trace.overhead": "ratio",
    "trace.unaccounted_frac": "ratio",
}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            str(trace),
            "--smoke",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert out.returncode == 0, out.stderr
    printed = {}
    for line in out.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(out.stdout.splitlines()[-1])


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_declares_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["chains_1d", "strip_methods"]
    # fail_frac is never above 0 when the program is right, so it is
    # reported through "attempted" and "failed" rather than declared.
    assert _declared("end_to_end") == {
        k: u for k, u in END_TO_END_UNITS.items() if k != "fail_frac"
    }
    assert _declared("per_layer") == PER_LAYER_UNITS


@pytest.mark.parametrize("workload", ["chains_1d", "strip_methods"])
def test_traced_smoke_run_prints_every_metric(workload):
    printed, result = _run(workload, trace=1)
    assert {k: u for k, (_, u) in printed.items()} == {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    assert printed["fail_frac"][0] == 0.0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 4
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("per_layer")


def test_untraced_smoke_run_reports_the_end_to_end_metrics():
    printed, result = _run("chains_1d", trace=0)
    assert {k: u for k, (_, u) in printed.items()} == END_TO_END_UNITS
    assert printed["fail_frac"][0] == 0.0
    # three timed replays, then the fixed-point check of wave_mismatch
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 4
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
