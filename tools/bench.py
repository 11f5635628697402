"""Write a BENCH file: every preset, a few scaling runs and the per-layer medians.

    python3 tools/bench.py BENCH_2.json

Run from the root of a checkout; the program is imported from ``src/``.
The JSON file holds:

* ``machine``: CPU, core count and Python/numpy/scipy versions, as the
  benchmark records them;
* ``presets``: for each shipped preset, the median wall time of three
  runs (``load_config`` plus ``run_experiment``), its sweep count and
  whether it reached its tolerance;
* ``scaling``: larger runs of the same shape, each with its config text:
  the ``fig_heat_nsub*`` chain on (0, 5) with 5, 9 and 17 equal
  subdomains (dx snapped to the partition lattice nearest 0.02, dt
  0.004, T 2, sequential sweep), the unit-Courant wave chain of
  ``fig_wave_T5`` at dx 0.02, 0.01 and 0.005, and the three-strip
  ``cmp2d_3sub_dnwr`` run at dy 0.16, 0.08 and 0.04 (dt 0.02 throughout,
  so every dy passes the Courant check), and the clipped-grid chain of
  ``fig_wave_nonmatching`` at dx 0.1, 0.05 and 0.025 with its steps
  0.13, 0.039, 0.1 scaled with dx (so each subdomain keeps its Courant
  number, and the first two steps divide T = 2 at no size: their grids
  stay clipped); one run each;
* ``kernels``: microseconds per time step of each kernel's march, the
  least of seven marches of 400 steps, for the heat step and the 1D
  wave step on 201 nodes and the strip step on 29 x 80 nodes, each
  without a batch axis and with a batch of 3, and with Dirichlet ends
  (D/D) or a Neumann left end (N/D): the kernel layers alone, which
  perfbench's ``*.solve`` spans do not reach since the response builds
  call the marches directly; and ``heat_chain build``, the microseconds
  per time step of every heat march that a run of perfbench's
  ``heat_chain`` (nine subdomains, 51 nodes each, 500 steps) makes,
  replayed together, least of seven: the build marches of its
  responses, one block march of 17 entries, which perfbench's spans do
  not reach either;
* ``perfbench``: per workload, the metrics of one traced
  ``perfbench/run.py --trace 1`` run at perfbench's default seed and
  length (the per-layer values are medians over its traced replays),
  read back from the record it writes to ``.perfbench_out/``.

Timings come from one process on whatever else the host is doing, so
compare two BENCH files only when they were written on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wrkit.grids import InterfaceTrace, SpaceGrid1D, TraceKind, make_time_grid  # noqa: E402
from wrkit.harness import build_guesses, load_config, preset_names, preset_text, run_experiment  # noqa: E402
from wrkit.harness.presets import _heat_nsub  # noqa: E402
from wrkit.harness.run import _setup as run_setup  # noqa: E402
from wrkit.kernels.heat import _Block as HeatBlock  # noqa: E402
from wrkit.kernels.heat import _march as heat_march  # noqa: E402
from wrkit.kernels.wave import _march as wave_march  # noqa: E402
from wrkit.methods import guess_grids, workspace, wr_run  # noqa: E402

REPEATS = 3
KERNEL_STEPS = 400
KERNEL_REPEATS = 7
WORKLOADS = ("chains_1d", "strip_methods")


def _replace(text: str, **values: str) -> str:
    lines = []
    for line in text.splitlines():
        key = line.partition(" = ")[0]
        lines.append(f"{key} = {values[key]}" if key in values else line)
    return "\n".join(lines) + "\n"


def _scaling() -> dict[str, str]:
    runs = {f"heat_{n}sub": _replace(_heat_nsub(n), label=f"heat_{n}sub") for n in (5, 9, 17)}
    for dx in ("0.02", "0.01", "0.005"):
        runs[f"wave_dx{dx}"] = _replace(preset_text("fig_wave_T5"), dx=dx, dt=dx, label=f"wave_dx{dx}")
    for dy in ("0.16", "0.08", "0.04"):
        runs[f"strip_dy{dy}"] = _replace(preset_text("cmp2d_3sub_dnwr"), dy=dy, dt="0.02", label=f"strip_dy{dy}")
    for dx, scale in (("0.1", 1.0), ("0.05", 0.5), ("0.025", 0.25)):
        dt = ", ".join(f"{step * scale:g}" for step in (0.13, 0.039, 0.1))
        runs[f"nonmatching_dx{dx}"] = _replace(
            preset_text("fig_wave_nonmatching"), dx=dx, dt=dt, label=f"nonmatching_dx{dx}"
        )
    return runs


def _timed(text: str, out_dir: str, repeats: int) -> dict:
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        report = run_experiment(load_config(text), out_dir)
        walls.append(time.perf_counter() - start)
    return {"wall_s": statistics.median(walls), "sweeps": len(report.max_errors), "converged": report.converged_at is not None}


def _kernels() -> dict[str, float]:
    """Microseconds per step of each kernel march, keyed like ``strip N/D batch 3``."""
    tgrid = make_time_grid(1.0, 1.0 / KERNEL_STEPS)
    m = KERNEL_STEPS + 1
    line = SpaceGrid1D.with_cells(0.0, 1.0, 200)  # wave Courant number 0.5
    strip = (SpaceGrid1D.with_cells(0.0, 1.0, 28), SpaceGrid1D.with_cells(0.0, 1.0, 79))  # 0.21
    rng = np.random.default_rng(0)
    out = {}
    for kernel in ("heat", "wave", "strip"):
        xgrid, ygrid = strip if kernel == "strip" else (line, None)
        ny = () if ygrid is None else (ygrid.n_nodes,)
        for ends, kinds in (("D/D", (TraceKind.DIRICHLET,) * 2), ("N/D", (TraceKind.NEUMANN, TraceKind.DIRICHLET))):
            bcs = [InterfaceTrace(kind, tgrid, np.zeros((m,) + ny)) for kind in kinds]
            for batch in ((), (3,)):
                u0, v0 = rng.standard_normal((2, xgrid.n_nodes) + ny + batch)
                g = rng.standard_normal((2, m) + ny + batch)
                lids = None if ygrid is None else rng.standard_normal((2, m, xgrid.n_nodes) + batch)
                if kernel == "heat":
                    march, args = heat_march, (tgrid, [HeatBlock(xgrid, 1.0, u0, *bcs, *g)])
                else:
                    march, args = wave_march, (xgrid, ygrid, 1.0, tgrid, u0, v0, *bcs, *g, lids, None)
                walls = []
                for _ in range(KERNEL_REPEATS):
                    start = time.perf_counter()
                    march(*args)
                    walls.append(time.perf_counter() - start)
                out[f"{kernel} {ends} {f'batch {batch[0]}' if batch else 'no batch'}"] = 1e6 * min(walls) / KERNEL_STEPS
    out["heat_chain build"] = _heat_chain_build()
    return out


def _heat_chain_build() -> float:
    """Microseconds per step of the heat marches of one perfbench ``heat_chain`` run, replayed together."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import HEAT_CHAIN

    (text,) = HEAT_CHAIN.configs(1, False)
    spec = load_config(text)
    problem, partition, grids, ygrid = run_setup(spec)
    guesses = build_guesses(spec.guess, guess_grids(partition, grids, spec.config), ygrid)
    calls = []
    real = workspace._heat_march
    workspace._heat_march = lambda *args: calls.append(args) or real(*args)
    try:  # no reference, so every heat march is a build march
        wr_run(problem, partition, grids, spec.config, guesses, reference=None)
    finally:
        workspace._heat_march = real
    walls = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        for args in calls:
            real(*args)
        walls.append(time.perf_counter() - start)
    print(f"heat_chain build: {len(calls)} marches", flush=True)
    return 1e6 * min(walls) / grids.tgrids[0].n_steps


def _perfbench(workload: str) -> dict:
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((ROOT / ".perfbench_out" / f"{workload}-seed1-trace1.json").read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("out", help="the BENCH_<n>.json file to write")
    args = p.parse_args(argv)

    bench: dict = {"machine": None, "presets": {}, "scaling": {}, "kernels": _kernels(), "perfbench": {}}
    for name, us in bench["kernels"].items():
        print(f"kernel {name}: {us:.2f} us/step", flush=True)
    with tempfile.TemporaryDirectory() as out_dir:
        for name in preset_names():
            bench["presets"][name] = _timed(preset_text(name), out_dir, REPEATS)
            print(f"preset {name}: {bench['presets'][name]}", flush=True)
        for name, text in _scaling().items():
            bench["scaling"][name] = {"config": text, **_timed(text, out_dir, 1)}
            print(f"scaling {name}: wall_s {bench['scaling'][name]['wall_s']:.3f}", flush=True)
    for workload in WORKLOADS:
        record = _perfbench(workload)
        bench["machine"] = record["machine"]
        bench["perfbench"][workload] = {
            "seed": record["seed"],
            "seconds": record["seconds"],
            "metrics": {k: v["value"] for k, v in record["metrics"].items()},
        }
        print(f"perfbench {workload}: done", flush=True)
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
