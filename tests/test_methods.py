"""Waveform-relaxation drivers: schedules, relaxation, fixed points,
finite-step convergence, determinism, comparator behavior."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import wrkit.methods
from wrkit.errors import IncompatibleGrids, NoReference, UnsupportedCount, ValidationError
from wrkit.grids import (
    InterfaceTrace,
    SpaceGrid1D,
    TraceKind,
    make_partition,
    make_time_grid,
    zero_trace,
)
from wrkit.harness import build_guesses, load_config, preset_text
from wrkit.harness.run import _setup as preset_setup
from wrkit.methods import (
    Arrangement,
    Method,
    RunGrids,
    WrConfig,
    arrangement_schedule,
    guess_grids,
    make_run_grids,
    producer_map,
    relax_update,
    traces_from_field,
    wr_run,
)
from wrkit.methods import dnwr as dnwr_mod
from wrkit.methods import workspace
from wrkit.methods.workspace import _setup, resolve_reference, solve_monodomain
from wrkit.projection import build_plan, project_trace

from conftest import (
    dirichlet_trace,
    heat_problem,
    pack,
    strip_problem,
    t_squared_guesses,
    trace_distance,
    uneven_partition,
    unpack,
    wave_problem,
)

D, N = TraceKind.DIRICHLET, TraceKind.NEUMANN


def tasks(schedule):
    return [
        [(t.subdomain, t.left, t.right) for t in stage] for stage in schedule
    ]


def test_outward_schedule_five():
    s = arrangement_schedule(5, Arrangement.A3)
    assert tasks(s) == [
        [(3, D, D)],
        [(2, D, N), (4, N, D)],
        [(1, D, N), (5, N, D)],
    ]


def test_redblack_schedule_five():
    s = arrangement_schedule(5, Arrangement.A2)
    assert tasks(s) == [
        [(1, D, D), (3, D, D), (5, D, D)],
        [(2, N, N), (4, N, N)],
    ]


def test_outward_schedule_six():
    s = arrangement_schedule(6, Arrangement.A3)
    assert tasks(s) == [
        [(3, D, D)],
        [(2, D, N), (4, N, D)],
        [(1, D, N), (5, N, D)],
        [(6, N, D)],
    ]


def test_sequential_schedule():
    s = arrangement_schedule(3, Arrangement.A1)
    assert tasks(s) == [[(1, D, D)], [(2, N, D)], [(3, N, D)]]


def test_schedule_rejects_single_subdomain():
    with pytest.raises(UnsupportedCount):
        arrangement_schedule(1, Arrangement.A1)


def test_schedule_validity_all_arrangements():
    for n in range(2, 13):
        for arr in Arrangement:
            s = arrangement_schedule(n, arr)
            scheduled = sorted(t.subdomain for stage in s for t in stage)
            assert scheduled == list(range(1, n + 1))


def test_schedules_are_well_formed():
    # What a sweep relies on and nothing checks at run time: a Neumann
    # side takes the flux its neighbor solved in an earlier stage, each
    # interface is refreshed by exactly one side, each subdomain solves once.
    for n in range(2, 41):
        for arr in Arrangement:
            stages = arrangement_schedule(n, arr)
            rank = {}
            for r, stage in enumerate(stages):
                for s, _, _ in stage:
                    assert s not in rank, (n, arr, s)
                    rank[s] = r
            assert sorted(rank) == list(range(1, n + 1)), (n, arr)
            sides = {i: 0 for i in range(1, n)}
            for r, stage in enumerate(stages):
                for s, left, right in stage:
                    for kind, iface, neighbor in ((left, s - 1, s - 1), (right, s, s + 1)):
                        if kind is N:
                            assert neighbor in rank and rank[neighbor] < r, (n, arr, s)
                            sides[iface] += 1
            assert set(sides.values()) == {1}, (n, arr, sides)


def test_producer_maps():
    p1 = producer_map(arrangement_schedule(5, Arrangement.A1))
    assert p1 == {1: 2, 2: 3, 3: 4, 4: 5}
    p2 = producer_map(arrangement_schedule(5, Arrangement.A2))
    assert p2 == {1: 2, 2: 2, 3: 4, 4: 4}
    p3 = producer_map(arrangement_schedule(5, Arrangement.A3))
    assert p3 == {1: 1, 2: 2, 3: 4, 4: 5}


def test_relax_update_identity():
    tg = make_time_grid(1.0, 0.25)
    new = dirichlet_trace(tg, lambda t: t**2)
    old = dirichlet_trace(tg, lambda t: 1.0 + 0.0 * t)
    assert relax_update(1.0, new, old) is new


def test_relax_update_halfway():
    tg = make_time_grid(1.0, 0.25)
    new = zero_trace(tg)
    old = dirichlet_trace(tg, lambda t: t**2)
    out = relax_update(0.5, new, old)
    np.testing.assert_allclose(out.samples, 0.5 * tg.times**2, rtol=1e-15)


def test_relax_update_weights():
    tg = make_time_grid(1.0, 0.25)
    new = dirichlet_trace(tg, lambda t: np.ones_like(t))
    old = dirichlet_trace(tg, lambda t: 2.0 * np.ones_like(t))
    out = relax_update(0.3, new, old)
    np.testing.assert_allclose(out.samples, 1.7, rtol=1e-15)


def test_relax_update_rejects_mismatches():
    tg = make_time_grid(1.0, 0.25)
    other = make_time_grid(1.0, 0.5)
    with pytest.raises(IncompatibleGrids):
        relax_update(0.5, zero_trace(tg), zero_trace(other))
    with pytest.raises(IncompatibleGrids):
        relax_update(0.5, zero_trace(tg), zero_trace(tg, TraceKind.NEUMANN))


def test_config_defaults_and_validation():
    assert WrConfig(method=Method.DNWR).theta_resolved == 0.5
    assert WrConfig(method=Method.NNWR).theta_resolved == 0.25
    assert WrConfig(method=Method.DNWR, theta=0.3).theta_resolved == 0.3
    with pytest.raises(ValidationError):
        WrConfig(theta=1.5)
    with pytest.raises(ValidationError):
        WrConfig(theta=0.0)
    with pytest.raises(ValidationError):
        WrConfig(max_iters=0)
    with pytest.raises(ValidationError):
        WrConfig(tol=0.0)
    with pytest.raises(ValidationError):
        WrConfig(method=Method.SWR_CLASSICAL, overlap_cells=0)
    with pytest.raises(ValidationError):
        WrConfig(method=Method.SWR_ROBIN)  # robin_p missing


@pytest.mark.parametrize("field, value", [("method", "dnwr"), ("arrangement", "outward")])
def test_config_rejects_a_method_or_arrangement_that_is_no_member(field, value):
    # The enum's value is not the enum: it would otherwise reach the
    # driver and fail there, outside the library's own errors.
    with pytest.raises(ValidationError, match=field):
        WrConfig(**{field: value})


_LATTICE_PARTITIONS = {
    2: (0.0, 2.5, 5.0),
    3: (0.0, 2.0, 3.5, 5.0),
    5: (0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
    6: (0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0),
}


def heat_setup(n_subs=3, dt=0.02, T=2.0):
    prob = heat_problem()
    part = make_partition(_LATTICE_PARTITIONS[n_subs])
    grids = make_run_grids(part, 0.05, T, dt)
    return prob, part, grids


def run_method(cfg, prob, part, grids, guesses=None, **kwargs):
    if guesses is None:
        guesses = [zero_trace(g) for g in guess_grids(part, grids, cfg)]
    return wr_run(prob, part, grids, cfg, guesses, **kwargs)


def start_method(monkeypatch, cfg, prob, part, grids, guesses=None):
    """The method's first state and its sweep, from the set-up its driver runs."""
    monkeypatch.setattr(wrkit.methods, "_drive", _setup)
    state, sweep, _ = run_method(cfg, prob, part, grids, guesses, reference=None)
    return state, sweep


ALL_CONFIGS = [
    WrConfig(method=Method.DNWR, arrangement=Arrangement.A1),
    WrConfig(method=Method.DNWR, arrangement=Arrangement.A2),
    WrConfig(method=Method.DNWR, arrangement=Arrangement.A3),
    WrConfig(method=Method.NNWR),
    WrConfig(method=Method.SWR_CLASSICAL),
    WrConfig(method=Method.SWR_ROBIN, robin_p=2.0),
]


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.method.value}-{c.arrangement.name}")
def test_zero_problem_converges_immediately(cfg):
    prob = heat_problem()
    prob = type(prob)(
        interval=prob.interval,
        nu=prob.nu,
        initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        boundary_left=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        boundary_right=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )
    part = make_partition((0.0, 2.0, 3.5, 5.0))
    grids = make_run_grids(part, 0.05, 1.0, 0.02)
    hist = run_method(cfg, prob, part, grids)
    assert hist.converged_at == 1
    assert hist.max_errors[0] == 0.0


def schwarz_pairs(field, part, cfg, dx):
    """The transmission pairs a Schwarz sweep consumes when ``field`` solves the whole domain."""

    def shifted(offset):
        inner = part.boundaries[1:-1] + offset
        return traces_from_field(field, make_partition((part.boundaries[0], *inner, part.boundaries[-1])))

    if cfg.method is Method.SWR_CLASSICAL:
        shift = cfg.overlap_cells * dx
        return list(zip(shifted(shift), shifted(-shift)))
    p = cfg.robin_p
    pairs = []
    for u, right, left in zip(shifted(0.0), shifted(dx), shifted(-dx)):
        w = (right.samples - left.samples) / (2.0 * dx)
        pairs.append(
            tuple(
                InterfaceTrace(TraceKind.ROBIN, field.tgrid, sign * w + p * u.samples, robin_p=p)
                for sign in (1.0, -1.0)
            )
        )
    return pairs


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.method.value}-{c.arrangement.name}")
def test_heat_fixed_point(cfg, monkeypatch):
    # Started from the exact single-domain interface histories, every
    # method must stay put: the split solves reproduce the monodomain
    # factorization at rounding level.
    prob, part, grids = heat_setup()
    xgrid = SpaceGrid1D.with_spacing(0.0, 5.0, grids.dx)
    field = solve_monodomain(prob, xgrid, grids.tgrids[0])
    gg = guess_grids(part, grids, cfg)
    guesses = [project_trace(tr, build_plan(field.tgrid, g)) for tr, g in zip(traces_from_field(field, part), gg)]
    if cfg.method in (Method.DNWR, Method.NNWR):
        one = WrConfig(**{**cfg.__dict__, "max_iters": 1, "tol": 1e-11})
        hist = run_method(one, prob, part, grids, guesses=guesses)
        assert hist.max_errors[0] <= 1e-11
        return
    # Schwarz carries transmission pairs, which the guesses do not fix:
    # sweep once from the pairs the monodomain field gives.
    pairs = schwarz_pairs(field, part, cfg, grids.dx)
    _, sweep = start_method(monkeypatch, cfg, prob, part, grids, guesses)
    new, monitored = sweep(pairs)
    for trace, exact in zip(monitored, guesses):
        assert trace_distance(trace, exact) <= 1e-11
    # Row 0 of a Robin pair is a one-sided flux of the initial data that
    # no heat step reads, so only rows 1 onward are a fixed point.
    for pair_after, pair_before in zip(new, pairs):
        for after, before in zip(pair_after, pair_before):
            assert np.max(np.abs(after.samples[1:] - before.samples[1:])) <= 1e-11


@pytest.mark.parametrize(
    "cfg",
    [
        WrConfig(method=Method.DNWR, arrangement=Arrangement.A1),
        WrConfig(method=Method.DNWR, arrangement=Arrangement.A2),
        WrConfig(method=Method.DNWR, arrangement=Arrangement.A3),
        WrConfig(method=Method.NNWR),
    ],
    ids=lambda c: f"{c.method.value}-{c.arrangement.name}",
)
def test_wave_fixed_point_with_per_subdomain_speeds(cfg):
    # The interface stencil weights neighbor slopes by the local speeds,
    # which makes the split exact for piecewise-constant speed as well.
    prob = wave_problem(interval=(0.0, 6.0), speed=(0.25, 2.0, 0.5))
    part = make_partition((0.0, 2.0, 4.0, 6.0))
    grids = make_run_grids(part, 0.1, 2.0, 0.039)
    xgrid = SpaceGrid1D.with_spacing(0.0, 6.0, grids.dx)
    field = solve_monodomain(prob, xgrid, grids.tgrids[0], partition=part)
    gg = guess_grids(part, grids, cfg)
    guesses = [project_trace(tr, build_plan(field.tgrid, g)) for tr, g in zip(traces_from_field(field, part), gg)]
    hist = run_method(
        WrConfig(**{**cfg.__dict__, "max_iters": 1, "tol": 1e-11}),
        prob,
        part,
        grids,
        guesses=guesses,
    )
    assert hist.max_errors[0] <= 1e-11


@pytest.mark.parametrize("name", ["fig_heat_5sub_T2", "fig_wave_nonmatching", "cmp2d_2sub_dnwr"])
def test_auto_reference_solves_through_the_module_global(name, monkeypatch):
    # A wrapper on workspace.solve_monodomain, as a profiler's span is,
    # sees every "auto" reference; one that bypassed the name would
    # leave the wrapper reading zero calls.
    prob, part, grids, ygrid = preset_setup(load_config(preset_text(name)))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_monodomain(*args, **kwargs)

    monkeypatch.setattr(workspace, "solve_monodomain", counted)
    ref, metric = resolve_reference(prob, part, grids, "auto", grids.tgrids[1:], ygrid)
    assert len(calls) == 1 and metric == "reference" and len(ref) == part.n_interfaces


def test_schwarz_rejects_per_subdomain_speeds():
    prob = wave_problem(interval=(0.0, 6.0), speed=(0.25, 2.0, 0.5))
    part = make_partition((0.0, 2.0, 4.0, 6.0))
    grids = make_run_grids(part, 0.1, 2.0, 0.039)
    for cfg in (
        WrConfig(method=Method.SWR_CLASSICAL),
        WrConfig(method=Method.SWR_ROBIN, robin_p=1.0),
    ):
        with pytest.raises(ValidationError):
            run_method(cfg, prob, part, grids)


def test_robin_schwarz_rejects_wave_problems():
    # one shared speed: only the Robin-on-waves rule can reject this run
    prob = wave_problem(interval=(0.0, 3.0))
    part = make_partition((0.0, 1.0, 2.0, 3.0))
    grids = make_run_grids(part, 0.05, 0.5, 0.05)
    with pytest.raises(ValidationError):
        run_method(WrConfig(method=Method.SWR_ROBIN, robin_p=1.0, max_iters=2), prob, part, grids)


def test_arrangements_share_one_fixed_point():
    prob, part, grids = heat_setup(n_subs=5)
    finals = []
    for arr in Arrangement:
        cfg = WrConfig(method=Method.DNWR, arrangement=arr, tol=1e-12, max_iters=80)
        hist = run_method(cfg, prob, part, grids, guesses=None)
        assert hist.converged_at is not None
        finals.append(hist.final_traces)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        for ta, tb in zip(finals[a], finals[b]):
            assert trace_distance(ta, tb) <= 1e-10


def test_wave_sweep_is_exact_after_predicted_steps():
    # CFL = 1: two sweeps cover the window T = 0.5 for the uneven split.
    prob = wave_problem()
    part = uneven_partition()
    grids = make_run_grids(part, 0.02, 0.5, 0.02)
    cfg = WrConfig(method=Method.DNWR, theta=0.5, max_iters=2, tol=1e-300)
    gg = guess_grids(part, grids, cfg)
    hist = run_method(cfg, prob, part, grids, guesses=t_squared_guesses(part, gg))
    assert hist.max_errors[1] <= 1e-12


def test_nnwr_wave_finite_step():
    # Three equal subdomains, T = 2 h/c: one exchange plus one sweep.
    prob = wave_problem(interval=(0.0, 3.0))
    part = make_partition((0.0, 1.0, 2.0, 3.0))
    grids = make_run_grids(part, 0.05, 2.0, 0.05)
    cfg = WrConfig(method=Method.NNWR, tol=1e-10, max_iters=10)
    hist = run_method(cfg, prob, part, grids)
    assert hist.converged_at is not None and hist.converged_at <= 2


def test_reruns_are_bitwise_identical():
    prob, part, grids = heat_setup(n_subs=5, T=1.0)
    cfg = WrConfig(method=Method.DNWR, arrangement=Arrangement.A2, max_iters=6, tol=1e-14)
    gg = guess_grids(part, grids, cfg)
    h1 = run_method(cfg, prob, part, grids, guesses=t_squared_guesses(part, gg))
    h2 = run_method(cfg, prob, part, grids, guesses=t_squared_guesses(part, gg))
    assert h1.max_errors == h2.max_errors
    for ta, tb in zip(h1.final_traces, h2.final_traces):
        assert np.array_equal(ta.samples, tb.samples)


@pytest.mark.parametrize("arrangement, n_subs", [(Arrangement.A2, 5), (Arrangement.A3, 6)])
def test_stage_order_does_not_change_bits(monkeypatch, arrangement, n_subs):
    # Tasks inside one stage are independent; listing them in reverse
    # must reproduce every output bit.
    prob, part, grids = heat_setup(n_subs=n_subs, T=1.0)
    cfg = WrConfig(method=Method.DNWR, arrangement=arrangement, max_iters=6, tol=1e-14)
    gg = guess_grids(part, grids, cfg)
    baseline = run_method(cfg, prob, part, grids, guesses=t_squared_guesses(part, gg))

    original = arrangement_schedule

    def reversed_stages(n, arrangement):
        return tuple(tuple(reversed(stage)) for stage in original(n, arrangement))

    monkeypatch.setattr(dnwr_mod, "arrangement_schedule", reversed_stages)
    permuted = run_method(cfg, prob, part, grids, guesses=t_squared_guesses(part, gg))
    assert baseline.max_errors == permuted.max_errors
    for ta, tb in zip(baseline.final_traces, permuted.final_traces):
        assert np.array_equal(ta.samples, tb.samples)


def test_robin_sweep_beats_classical():
    prob, part, grids = heat_setup(n_subs=2)
    classical = run_method(
        WrConfig(method=Method.SWR_CLASSICAL, tol=1e-8, max_iters=200),
        prob,
        part,
        grids,
    )
    robin_counts = []
    for p in (1.0, 4.0):
        hist = run_method(
            WrConfig(method=Method.SWR_ROBIN, robin_p=p, tol=1e-8, max_iters=200),
            prob,
            part,
            grids,
        )
        assert hist.converged_at is not None
        robin_counts.append(hist.converged_at)
    assert classical.converged_at is not None
    assert len(set(robin_counts)) > 1  # the coefficient matters
    assert min(robin_counts) < classical.converged_at


def test_history_bookkeeping():
    prob, part, grids = heat_setup()
    cfg = WrConfig(method=Method.DNWR, tol=1e-9, max_iters=40)
    gg = guess_grids(part, grids, cfg)
    hist = run_method(cfg, prob, part, grids, guesses=t_squared_guesses(part, gg))
    assert hist.iterations == len(hist.max_errors)
    for errs, m in zip(hist.errors, hist.max_errors):
        assert len(errs) == part.n_interfaces
        assert m == max(errs)
    assert hist.converged_at == next(
        k + 1 for k, m in enumerate(hist.max_errors) if m <= cfg.tol
    )
    assert len(hist.final_traces) == part.n_interfaces


def test_guess_validation():
    prob, part, grids = heat_setup()
    cfg = WrConfig(method=Method.DNWR)
    gg = guess_grids(part, grids, cfg)
    with pytest.raises(ValidationError):
        run_method(cfg, prob, part, grids, guesses=[zero_trace(gg[0])])
    wrong_grid = make_time_grid(2.0, 0.05)
    with pytest.raises(IncompatibleGrids):
        run_method(
            cfg, prob, part, grids, guesses=[zero_trace(wrong_grid) for _ in gg]
        )
    with pytest.raises(ValidationError):
        run_method(
            cfg,
            prob,
            part,
            grids,
            guesses=[zero_trace(g, TraceKind.NEUMANN) for g in gg],
        )


def test_initial_guess_compatibility_forcing():
    # A guess that disagrees with the initial condition at t=0 is
    # corrected in place of being iterated on forever.
    prob, part, grids = heat_setup()
    cfg = WrConfig(method=Method.DNWR, max_iters=3, tol=1e-14)
    gg = guess_grids(part, grids, cfg)
    bad = [
        InterfaceTrace(TraceKind.DIRICHLET, g, 1.0 + g.times**2) for g in gg
    ]
    hist = run_method(cfg, prob, part, grids, guesses=bad)
    u0 = prob.initial
    for i, tr in enumerate(hist.initial, start=1):
        assert tr.samples[0] == pytest.approx(
            float(u0(part.interface_position(i))), abs=1e-14
        )


def sweep_case(source, cfg):
    """Problem, partition, grids, config and guesses: ``heat_setup`` or a shipped preset."""
    if source == "heat":
        return (*heat_setup(), cfg, None)
    spec = load_config(preset_text(source))
    prob, part, grids, ygrid = preset_setup(spec)
    cfg = replace(spec.config, method=cfg.method)
    return prob, part, grids, cfg, build_guesses(spec.guess, guess_grids(part, grids, cfg), ygrid)


SWEEP_CASES = [("heat", cfg) for cfg in ALL_CONFIGS] + [
    (name, WrConfig(method=method))
    for name, methods in (
        ("fig_wave_T5", (Method.DNWR, Method.NNWR, Method.SWR_CLASSICAL)),
        ("fig_wave_nonmatching", (Method.DNWR, Method.NNWR)),
        ("cmp2d_3sub_dnwr", (Method.DNWR,)),
        ("cmp2d_3sub_nnwr", (Method.NNWR,)),
        ("cmp2d_3sub_swr_classical", (Method.SWR_CLASSICAL,)),
    )
    for method in methods
]


@pytest.mark.parametrize(
    "source, cfg", SWEEP_CASES, ids=[f"{s}-{c.method.value}-{c.arrangement.name}" for s, c in SWEEP_CASES]
)
def test_sweep_is_an_affine_function_of_its_state(source, cfg, monkeypatch):
    # A sweep maps the state to the next one and keeps nothing between
    # calls: it is affine in the state, repeats its bits, and leaves its
    # argument alone.
    prob, part, grids, cfg, guesses = sweep_case(source, cfg)
    state, sweep = start_method(monkeypatch, cfg, prob, part, grids, guesses)
    v = unpack(state, np.random.default_rng(3).standard_normal(pack(state).size))
    before = pack(v)

    def S(x):
        return pack(sweep(x))

    s0 = S(unpack(state, np.zeros_like(before)))
    s1 = S(v)
    s2 = S(unpack(state, 2.0 * before))
    assert np.max(np.abs((s2 - s0) - 2.0 * (s1 - s0))) <= 1e-12 * np.max(np.abs(s2 - s0))
    assert np.array_equal(S(v), s1)
    assert np.array_equal(pack(v), before)


_PAIR = make_partition((0.0, 2.5, 5.0))
_TG = make_time_grid(1.0, 0.1)
_STRIP = make_partition((0.0, 0.5, 1.0))

WORKSPACE_ERRORS = {
    "dt_count": (ValidationError, lambda: make_run_grids(_PAIR, 0.05, 1.0, [0.1, 0.1, 0.1])),
    "span": (
        ValidationError,
        lambda: workspace.build_workspaces(heat_problem((0.0, 4.0)), _PAIR, RunGrids(0.05, (_TG, _TG))),
    ),
    "grid_count": (ValidationError, lambda: workspace.build_workspaces(heat_problem(), _PAIR, RunGrids(0.05, (_TG,)))),
    "window": (
        ValidationError,
        lambda: workspace.build_workspaces(
            heat_problem(), _PAIR, RunGrids(0.05, (_TG, make_time_grid(2.0, 0.1)))
        ),
    ),
    "no_dy": (ValidationError, lambda: workspace.build_workspaces(strip_problem(), _STRIP, RunGrids(0.1, (_TG, _TG)))),
    "shapes": (
        IncompatibleGrids,
        lambda: workspace.trace_distance([zero_trace(_TG, ny=3)], [zero_trace(_TG, ny=4)]),
    ),
    "guess_2d": (
        IncompatibleGrids,
        lambda: workspace.normalize_guesses(heat_problem(), _PAIR, [zero_trace(_TG, ny=4)], (_TG,), None),
    ),
    "reference_name": (
        NoReference,
        lambda: resolve_reference(heat_problem(), _PAIR, RunGrids(0.05, (_TG, _TG)), "exact", (_TG,), None),
    ),
    "adapter": (TypeError, lambda: workspace._adapter(object())),
}


@pytest.mark.parametrize("case", WORKSPACE_ERRORS)
def test_workspace_rejects(case):
    error, call = WORKSPACE_ERRORS[case]
    with pytest.raises(error):
        call()
