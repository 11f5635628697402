"""Explicit wave kernel: exact transport at CFL=1, energy, flux, stability."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from wrkit.errors import CflViolation, ValidationError, WrongBoundaryKind
from wrkit.grids import (
    InterfaceTrace,
    SpaceGrid1D,
    TraceKind,
    make_partition,
    make_time_grid,
    make_time_grid_clipped,
    zero_trace,
)
from wrkit.harness import load_config, preset_text
from wrkit.harness.run import _setup as preset_setup
from wrkit.kernels import sample, solve_wave_subdomain, wave, wave_interface_flux
from wrkit.kernels.common import dirichlet_history, leapfrog
from wrkit.kernels.wave import second_time_difference
from wrkit.methods.workspace import solve_monodomain

from conftest import dirichlet_trace, wave_problem


def ramp_field(dx=0.01, T=1.2):
    # c=1 at CFL=1 on (0,3): a ramp enters from the left, u = max(0, t-x).
    grid = SpaceGrid1D.with_spacing(0.0, 3.0, dx)
    tgrid = make_time_grid(T, dx)
    left = dirichlet_trace(tgrid, lambda t: t)
    right = zero_trace(tgrid)
    zeros = np.zeros(grid.n_nodes)
    field = solve_wave_subdomain(grid, 1.0, tgrid, zeros, zeros.copy(), left, right)
    return grid, tgrid, field


def test_unit_cfl_transport_is_exact():
    grid, tgrid, field = ramp_field()
    assert tgrid.n_steps >= 100
    exact = np.maximum(0.0, tgrid.times[:, None] - grid.nodes[None, :])
    assert np.max(np.abs(field.values - exact)) <= 1e-12


def test_ramp_flux_is_minus_one():
    _, _, field = ramp_field()
    w = wave_interface_flux(field, "left", 1.0)
    np.testing.assert_allclose(w[1:], -1.0, atol=1e-12)
    assert w.shape == field.tgrid.times.shape


def test_zero_data_stays_zero():
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.05)
    tgrid = make_time_grid(1.0, 0.025)
    zeros = np.zeros(grid.n_nodes)
    field = solve_wave_subdomain(
        grid, 1.0, tgrid, zeros, zeros.copy(), zero_trace(tgrid), zero_trace(tgrid)
    )
    assert np.all(field.values == 0.0)
    assert np.all(wave_interface_flux(field, "right", 1.0) == 0.0)


def discrete_energy(values, dt, dx, c):
    du_t = (values[1:] - values[:-1]) / dt
    sx = (values[:, 1:] - values[:, :-1]) / dx
    kinetic = 0.5 * np.sum(du_t**2, axis=1)
    potential = 0.5 * c**2 * np.sum(sx[:-1] * sx[1:], axis=1)
    return kinetic + potential


def test_energy_is_conserved_below_unit_cfl():
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.01)
    tgrid = make_time_grid(0.5, 0.005)  # CFL = 0.5, 100 steps
    assert tgrid.n_steps == 100
    u0 = np.sin(np.pi * grid.nodes)
    v0 = np.zeros(grid.n_nodes)
    field = solve_wave_subdomain(
        grid, 1.0, tgrid, u0, v0, zero_trace(tgrid), zero_trace(tgrid)
    )
    e = discrete_energy(field.values, 0.005, 0.01, 1.0)
    assert np.max(np.abs(e - e[0])) <= 1e-10 * abs(e[0])


def test_cfl_guard():
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.01)
    tgrid = make_time_grid(0.5, 0.02)  # c*dt/dx = 2
    zeros = np.zeros(grid.n_nodes)
    with pytest.raises(CflViolation):
        solve_wave_subdomain(
            grid, 1.0, tgrid, zeros, zeros.copy(), zero_trace(tgrid), zero_trace(tgrid)
        )


def test_steady_linear_profile_and_unit_flux():
    grid = SpaceGrid1D.with_spacing(0.0, 2.0, 0.1)
    tgrid = make_time_grid(1.0, 0.05)
    left = zero_trace(tgrid)
    right = dirichlet_trace(tgrid, lambda t: 2.0 * np.ones_like(t))
    field = solve_wave_subdomain(
        grid, 1.0, tgrid, grid.nodes.copy(), np.zeros(grid.n_nodes), left, right
    )
    np.testing.assert_allclose(
        field.values, np.broadcast_to(grid.nodes, field.values.shape), atol=1e-12
    )
    for side in ("left", "right"):
        w = wave_interface_flux(field, side, 1.0)
        np.testing.assert_allclose(w, 1.0, atol=1e-12)


def test_second_time_difference_of_quadratic():
    tgrid = make_time_grid(1.0, 0.1)
    vals = tgrid.times**2
    dtt = second_time_difference(vals, tgrid.times, np.zeros(1)[0])
    np.testing.assert_allclose(dtt, 2.0, atol=1e-10)


def test_flux_not_recoverable_at_neumann_boundary():
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.1)
    tgrid = make_time_grid(1.0, 0.05)
    left = InterfaceTrace(TraceKind.NEUMANN, tgrid, np.ones(len(tgrid.times)))
    right = dirichlet_trace(tgrid, lambda t: np.ones_like(t))
    field = solve_wave_subdomain(
        grid, 1.0, tgrid, grid.nodes.copy(), np.zeros(grid.n_nodes), left, right
    )
    with pytest.raises(WrongBoundaryKind):
        wave_interface_flux(field, "left", 1.0)


@pytest.mark.parametrize("side", ["left", "right"])
def test_robin_boundary_rejected(side):
    # Only Robin Schwarz makes Robin data, and it is rejected on waves, so
    # the kernel takes none rather than march an untested ghost.
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.1)
    tgrid = make_time_grid(1.0, 0.05)
    robin = InterfaceTrace(TraceKind.ROBIN, tgrid, np.zeros(len(tgrid.times)), robin_p=1.0)
    bcs = {"left": zero_trace(tgrid), "right": zero_trace(tgrid), side: robin}
    zeros = np.zeros(grid.n_nodes)
    with pytest.raises(WrongBoundaryKind):
        solve_wave_subdomain(grid, 1.0, tgrid, zeros, zeros.copy(), bcs["left"], bcs["right"])


def test_neumann_boundary_steady_state():
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.1)
    tgrid = make_time_grid(1.0, 0.05)
    left = InterfaceTrace(TraceKind.NEUMANN, tgrid, np.ones(len(tgrid.times)))
    right = dirichlet_trace(tgrid, lambda t: np.ones_like(t))
    field = solve_wave_subdomain(
        grid, 1.0, tgrid, grid.nodes.copy(), np.zeros(grid.n_nodes), left, right
    )
    np.testing.assert_allclose(
        field.values, np.broadcast_to(grid.nodes, field.values.shape), atol=1e-12
    )


def traveling_wave_error(dt_request):
    # u = sin(x - t) solves the homogeneous equation with c = 1; the
    # clipped grid exercises the variable-step three-level stencil.
    grid = SpaceGrid1D.with_spacing(0.0, 2.0, 0.02)
    tgrid = make_time_grid_clipped(0.5, dt_request)
    assert not tgrid.uniform
    u0 = np.sin(grid.nodes)
    v0 = -np.cos(grid.nodes)
    left = dirichlet_trace(tgrid, lambda t: np.sin(-t))
    right = dirichlet_trace(tgrid, lambda t: np.sin(2.0 - t))
    field = solve_wave_subdomain(grid, 1.0, tgrid, u0, v0, left, right)
    exact = np.sin(grid.nodes[None, :] - tgrid.times[:, None])
    return np.max(np.abs(field.values - exact))


def test_variable_final_step_keeps_second_order():
    coarse = traveling_wave_error(0.0123)
    fine = traveling_wave_error(0.0123 / 2.0)
    assert coarse < 2e-3
    assert coarse / fine > 2.5


def test_two_subdomain_split_reproduces_monodomain():
    problem = wave_problem()
    xgrid = SpaceGrid1D.with_spacing(0.0, 5.0, 0.05)
    tgrid = make_time_grid(2.0, 0.04)  # CFL = 0.8
    mono = solve_monodomain(problem, xgrid, tgrid)
    j = xgrid.node_index(2.0)
    trace = InterfaceTrace(TraceKind.DIRICHLET, tgrid, mono.values[:, j])

    left_grid = SpaceGrid1D.with_spacing(0.0, 2.0, 0.05)
    right_grid = SpaceGrid1D.with_spacing(2.0, 5.0, 0.05)
    gl = dirichlet_trace(tgrid, lambda t: t**2)
    gr = dirichlet_trace(tgrid, lambda t: t**3)
    u0 = problem.initial_u
    zeros_l = np.zeros(left_grid.n_nodes)
    zeros_r = np.zeros(right_grid.n_nodes)
    left_field = solve_wave_subdomain(
        left_grid, 1.0, tgrid, u0(left_grid.nodes), zeros_l, gl, trace
    )
    flux = InterfaceTrace(TraceKind.NEUMANN, tgrid, wave_interface_flux(left_field, "right", 1.0))
    right_field = solve_wave_subdomain(
        right_grid, 1.0, tgrid, u0(right_grid.nodes), zeros_r, flux, gr
    )
    np.testing.assert_allclose(right_field.values[:, 0], mono.values[:, j], atol=1e-11)
    np.testing.assert_allclose(left_field.values, mono.values[:, : j + 1], atol=1e-11)
    np.testing.assert_allclose(right_field.values, mono.values[:, j:], atol=1e-11)


def test_piecewise_speeds_monodomain_needs_partition():
    problem = wave_problem(speed=(2.0, 0.5))
    xgrid = SpaceGrid1D.with_spacing(0.0, 5.0, 0.05)
    tgrid = make_time_grid(2.0, 0.02)
    with pytest.raises(ValidationError, match="of the partition"):
        solve_monodomain(problem, xgrid, tgrid)
    partition = make_partition((0.0, 2.0, 5.0))
    field = solve_monodomain(problem, xgrid, tgrid, partition=partition)
    assert field.values.shape == (len(tgrid.times), xgrid.n_nodes)
    np.testing.assert_array_equal(field.values[0], problem.initial_u(xgrid.nodes))


@pytest.mark.parametrize("c", [1.0, 0.7])
def test_equal_piecewise_speeds_match_uniform_speed(c):
    # Equal speeds given per subdomain must march the one-speed scheme
    # bit for bit. A source, a nonzero initial rate and a clipped final
    # step exercise every term of the march.
    problem = replace(
        wave_problem(interval=(0.0, 4.0), speed=c),
        initial_ut=lambda x: np.sin(x),
        source=lambda x, t: x * np.cos(t),
    )
    xgrid = SpaceGrid1D.with_spacing(0.0, 4.0, 0.05)
    tgrid = make_time_grid_clipped(2.0, 0.03)
    partition = make_partition((0.0, 1.0, 2.0, 3.0, 4.0))
    uniform = solve_monodomain(problem, xgrid, tgrid).values
    piecewise = solve_monodomain(
        replace(problem, speed=(c,) * 4), xgrid, tgrid, partition=partition
    ).values
    assert np.array_equal(piecewise, uniform)


def _weights_accel_reference(problem, xgrid, tgrid, partition):
    """The piecewise-speed monodomain march as a per-node weights accel.

    Each node's row is (wl u[j-1] + wc u[j] + wr u[j+1]) / dx^2, with
    (c^2, -2 c^2, c^2) inside a subdomain and s (cl, -(cl + cr), cr),
    s = 2 cl cr / (cl + cr), at an interface between speeds cl and cr.
    """
    speeds = np.asarray(problem.speed, dtype=float)
    wl = np.empty(xgrid.n_nodes)
    for i in range(1, partition.n_subdomains + 1):
        a, b = partition.bounds(i)
        wl[xgrid.node_index(a) : xgrid.node_index(b) + 1] = speeds[i - 1] ** 2
    wr = wl.copy()
    for i in range(1, partition.n_interfaces + 1):
        j = xgrid.node_index(partition.interface_position(i))
        cl, cr = speeds[i - 1], speeds[i]
        s = 2.0 * cl * cr / (cl + cr)
        wl[j], wr[j] = s * cl, s * cr
    wc = -(wl + wr)
    x, times, dx = xgrid.nodes, tgrid.times, xgrid.dx
    left = dirichlet_history(problem.boundary_left, tgrid).samples
    right = dirichlet_history(problem.boundary_right, tgrid).samples
    u = np.empty((len(times), xgrid.n_nodes))
    u[0] = sample(problem.initial_u, x.shape, x)
    a = np.zeros(xgrid.n_nodes)

    def accel(n):
        a[1:-1] = (wl[1:-1] * u[n, :-2] + wc[1:-1] * u[n, 1:-1] + wr[1:-1] * u[n, 2:]) / dx**2
        if problem.source is not None:
            a[1:-1] += problem.source(x[1:-1], times[n])
        return a

    def pin(n):
        u[n, 0], u[n, -1] = left[n], right[n]

    leapfrog(u, times, sample(problem.initial_ut, x.shape, x), accel, pin)
    return u


def test_piecewise_monodomain_matches_the_weights_accel():
    # The reference of fig_wave_nonmatching: three speeds, marched on the
    # finest of its time grids.
    problem, partition, grids, _ = preset_setup(load_config(preset_text("fig_wave_nonmatching")))
    assert len(set(problem.speed)) == 3
    xgrid = SpaceGrid1D.with_spacing(*partition.interval, grids.dx)
    tgrid = max(grids.tgrids, key=lambda tg: tg.n_steps)
    got = solve_monodomain(problem, xgrid, tgrid, partition=partition).values
    want = _weights_accel_reference(problem, xgrid, tgrid, partition)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# The leapfrog march as it was written out of place: one new array per
# row and per accel call. The in-place march must give the same bits.


def _out_of_place_step(cur, prev, tau, tau_prev, a):
    return ((tau + tau_prev) / tau_prev) * cur - (tau / tau_prev) * prev + 0.5 * tau * (tau + tau_prev) * a


def _out_of_place_leapfrog(u, times, rate0, accel, pin):
    steps = np.diff(times)
    tau0 = steps[0]
    u[1] = u[0] + tau0 * rate0 + 0.5 * tau0**2 * accel(0)
    pin(1)
    for n in range(1, len(steps)):
        u[n + 1] = _out_of_place_step(u[n], u[n - 1], steps[n], steps[n - 1], accel(n))
        pin(n + 1)


def _out_of_place_accel(self, v, g_left, g_right, t=None):
    dx = self.dx
    lap = np.empty_like(v)
    lap[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    lap[0] = 2.0 * (v[1] - v[0]) - 2.0 * dx * g_left if self.left_neumann else 0.0
    lap[-1] = 2.0 * (v[-2] - v[-1]) + 2.0 * dx * g_right if self.right_neumann else 0.0
    if self.dy is None:
        a = self.c2_over_dx2 * lap
    else:
        lap /= dx**2
        lap[:, 1:-1] += (v[:, :-2] - 2.0 * v[:, 1:-1] + v[:, 2:]) / self.dy**2
        a = self.c2 * lap
    if self.source is not None:
        entry0 = a if a.ndim == len(self.coords) else a[..., 0]
        entry0 += self.source(*self.coords, t)
    return a


LEAPFROG_CASES = [
    (strip, clipped, batch, kinds)
    for strip in (False, True)
    for clipped in (False, True)
    for batch in (None, 3)
    for kinds in ((TraceKind.NEUMANN, TraceKind.DIRICHLET), (TraceKind.DIRICHLET, TraceKind.NEUMANN))
]


@pytest.mark.parametrize(
    "strip, clipped, batch, kinds",
    LEAPFROG_CASES,
    ids=[
        f"{'strip' if s else '1d'}-{'clipped' if c else 'uniform'}-batch{b}-{k[0].name}-{k[1].name}"
        for s, c, b, k in LEAPFROG_CASES
    ],
)
def test_in_place_leapfrog_matches_the_out_of_place_loop(monkeypatch, strip, clipped, batch, kinds):
    rng = np.random.default_rng(7)
    xgrid = SpaceGrid1D.with_cells(0.0, 1.0, 10)
    ygrid = SpaceGrid1D.with_cells(0.0, 1.0, 8) if strip else None
    tgrid = (make_time_grid_clipped if clipped else make_time_grid)(1.0, 0.07 if clipped else 0.05)
    assert tgrid.uniform is not clipped
    m = len(tgrid.times)
    shape = (11,) if ygrid is None else (11, 9)
    extra = () if batch is None else (batch,)
    u0, v0 = rng.standard_normal((2,) + shape + extra)
    g_left, g_right = rng.standard_normal((2, m) + shape[1:] + extra)
    lids = None if ygrid is None else tuple(rng.standard_normal((2, m, 11) + extra))
    bcs = [InterfaceTrace(kind, tgrid, np.zeros((m,) + shape[1:])) for kind in kinds]

    def source(*coords_and_t):
        return np.cos(sum(coords_and_t))

    def march():
        return wave._march(xgrid, ygrid, 1.0, tgrid, u0, v0, *bcs, g_left, g_right, lids, source)

    got = march()
    with monkeypatch.context() as patch:
        patch.setattr(wave, "leapfrog", _out_of_place_leapfrog)
        patch.setattr(wave._Stencil, "accel", _out_of_place_accel)
        want = march()
    assert np.array_equal(got, want)

    # The one step a clipped grid's response applies at build time.
    stencil = wave._Stencil(xgrid, ygrid, 1.0, *kinds)
    cur, prev = got[-2], got[-3]
    tau_prev, tau = tgrid.steps[-2:]
    step = stencil.step(cur, prev, tau, tau_prev, g_left[-1], g_right[-1])
    a = _out_of_place_accel(stencil, cur, g_left[-1], g_right[-1])
    oracle = _out_of_place_step(cur, prev, tau, tau_prev, a)
    stencil.pin(oracle, g_left[-1], g_right[-1])
    assert np.array_equal(step, oracle)


ACCEL_CASES = [
    (strip, batch, kinds)
    for strip in (False, True)
    for batch in (None, 3)
    for kinds in ((TraceKind.NEUMANN, TraceKind.DIRICHLET), (TraceKind.DIRICHLET, TraceKind.NEUMANN))
]


@pytest.mark.parametrize(
    "strip, batch, kinds",
    ACCEL_CASES,
    ids=[
        f"{'strip' if s else '1d'}-batch{b}-{k[0].name}-{k[1].name}" for s, b, k in ACCEL_CASES
    ],
)
def test_accel_on_non_contiguous_views_matches_the_out_of_place_accel(strip, batch, kinds):
    # A clipped grid's last-row map steps its rows as a batch axis that
    # moveaxis and slices make: views that are not C-contiguous. A
    # transposed layout is one whose x and y axes no reshape can merge.
    rng = np.random.default_rng(11)
    xgrid = SpaceGrid1D.with_cells(0.0, 1.0, 10)
    ygrid = SpaceGrid1D.with_cells(0.0, 1.0, 8) if strip else None
    shape = (11,) if ygrid is None else (11, 9)
    stencil = wave._Stencil(xgrid, ygrid, 1.0, *kinds, lambda *coords_and_t: np.cos(sum(coords_and_t)))
    if batch is None:
        views = [rng.standard_normal(shape + (3,))[..., 1], rng.standard_normal(shape[::-1]).T[::-1]]
        g_left, g_right = rng.standard_normal((2,) + shape[1:])
    else:
        views = [
            np.moveaxis(rng.standard_normal((batch,) + shape), 0, -1),
            rng.standard_normal(shape + (batch + 2,))[..., 1 : batch + 1],
            rng.standard_normal((batch,) + shape[::-1]).T,
        ]
        g_left, g_right = np.moveaxis(rng.standard_normal((2, batch) + shape[1:]), 1, -1)
    owned = (slice(None),) if ygrid is None else (slice(None), slice(1, -1))  # all but the lids
    for v in views:
        assert not v.flags.c_contiguous
        before = v.copy()
        got = stencil.accel(v, g_left, g_right, 0.3)
        assert np.array_equal(v, before)
        want = _out_of_place_accel(stencil, v, g_left, g_right, 0.3)
        assert np.array_equal(got[owned], want[owned])
        contiguous = stencil.accel(np.ascontiguousarray(v), g_left, g_right, 0.3)
        assert np.array_equal(got, contiguous)


@pytest.mark.parametrize("clipped", [False, True])
def test_in_place_piecewise_monodomain_matches_the_out_of_place_loop(monkeypatch, clipped):
    problem = wave_problem(speed=(0.5, 2.0, 1.0))
    xgrid = SpaceGrid1D.with_spacing(0.0, 5.0, 0.1)
    tgrid = (make_time_grid_clipped if clipped else make_time_grid)(1.0, 0.03 if clipped else 0.025)
    partition = make_partition((0.0, 1.0, 3.0, 5.0))
    got = solve_monodomain(problem, xgrid, tgrid, partition=partition).values
    with monkeypatch.context() as patch:
        patch.setattr(wave, "leapfrog", _out_of_place_leapfrog)
        want = solve_monodomain(problem, xgrid, tgrid, partition=partition).values
    assert np.array_equal(got, want)
