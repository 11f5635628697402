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
from wrkit.kernels.common import dirichlet_history
from wrkit.kernels.wave import march_factors, second_time_difference
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
    dtt = second_time_difference(vals, tgrid.times, np.zeros(1)[0], march_factors(1.0, 0.1, None, tgrid.steps))
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


def _leapfrog_with_accel(u, times, rate0, accel, pin):
    """The three-level scheme in its textbook form, over the rows of ``u``.

    u^1 = u^0 + tau w0 + (tau^2/2) a^0, then u^{n+1} = alpha u^n - beta
    u^{n-1} + gamma a^n with alpha = (tau + tau_p)/tau_p, beta =
    tau/tau_p and gamma = tau (tau + tau_p)/2; ``accel(n)`` is a^n from
    ``u[n]`` and ``pin(n)`` writes the boundary data of ``u[n]``.
    """
    steps = np.diff(times)
    u[1] = u[0] + steps[0] * rate0 + 0.5 * steps[0] ** 2 * accel(0)
    pin(1)
    for n in range(1, len(steps)):
        tau, tau_p = steps[n], steps[n - 1]
        u[n + 1] = (tau + tau_p) / tau_p * u[n] - tau / tau_p * u[n - 1] + 0.5 * tau * (tau + tau_p) * accel(n)
        pin(n + 1)


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

    _leapfrog_with_accel(u, times, sample(problem.initial_ut, x.shape, x), accel, pin)
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


def _dense_second_difference(wl, wr, d, neumann_left, neumann_right):
    """Rows (wl, -(wl + wr), wr)/d^2 as a dense matrix, per node.

    A Neumann end folds its mirror ghost into its neighbour's weight; a
    pinned end is a zero row.
    """
    n = len(wl)
    lap = np.zeros((n, n))
    for j in range(1, n - 1):
        lap[j, j - 1 : j + 2] = wl[j], -(wl[j] + wr[j]), wr[j]
    if neumann_left:
        lap[0, :2] = -(wl[0] + wr[0]), wl[0] + wr[0]
    if neumann_right:
        lap[-1, -2:] = wl[-1] + wr[-1], -(wl[-1] + wr[-1])
    return lap / d**2


def _dense_march(xgrid, ygrid, c, tgrid, u0, v0, kinds, g_left, g_right, lids, source):
    """One entry's march with a dense-matrix accel: L u plus the Neumann ghost data and f.

    L is the x second difference with ghost rows, or on a strip its
    Kronecker sum with the y one (lid rows zero). Its weights are c^2
    each, or for a per-cell ``c`` the module docstring's asymmetric row
    s (cl, cr) at a node between speeds cl and cr, s = 2 cl cr/(cl + cr),
    and an end node's cell's c^2.
    """
    neumann = [kind is TraceKind.NEUMANN for kind in kinds]
    nx1, dx, times = xgrid.n_nodes, xgrid.dx, tgrid.times
    cell = np.broadcast_to(c, (nx1 - 1,))
    cl, cr = np.concatenate(([cell[0]], cell)), np.concatenate((cell, [cell[-1]]))
    s = 2.0 * cl * cr / (cl + cr)
    wl, wr = s * cl, s * cr
    lap = _dense_second_difference(wl, wr, dx, *neumann)
    shape = (nx1,)
    if ygrid is not None:
        ny1 = ygrid.n_nodes
        lap_y = _dense_second_difference(np.full(ny1, c**2), np.full(ny1, c**2), ygrid.dx, False, False)
        lap = np.kron(lap, np.eye(ny1)) + np.kron(np.eye(nx1), lap_y)
        shape = (nx1, ny1)
    coords = (xgrid.nodes,) if ygrid is None else (xgrid.nodes[:, None], ygrid.nodes[None, :])
    u = np.empty((len(times),) + shape)
    u[0] = u0

    def accel(n):
        a = (lap @ u[n].ravel()).reshape(shape)
        if neumann[0]:
            a[0] -= 2.0 * wl[0] * g_left[n] / dx
        if neumann[1]:
            a[-1] += 2.0 * wr[-1] * g_right[n] / dx
        return a if source is None else a + source(*coords, times[n])

    def pin(n):
        if not neumann[0]:
            u[n, 0] = g_left[n]
        if not neumann[1]:
            u[n, -1] = g_right[n]
        if ygrid is not None:
            u[n, :, 0], u[n, :, -1] = lids[0][n], lids[1][n]

    _leapfrog_with_accel(u, times, v0, accel, pin)
    return u


DENSE_CASES = [
    (strip, clipped, batch, kinds, per_cell)
    for strip in (False, True)
    for clipped in (False, True)
    for batch in (None, 3)
    for kinds in (
        (TraceKind.DIRICHLET, TraceKind.DIRICHLET),
        (TraceKind.NEUMANN, TraceKind.DIRICHLET),
        (TraceKind.DIRICHLET, TraceKind.NEUMANN),
    )
    for per_cell in (False, True)
    if not (per_cell and (strip or batch))
]


@pytest.mark.parametrize(
    "strip, clipped, batch, kinds, per_cell",
    DENSE_CASES,
    ids=[
        f"{'strip' if s else '1d'}-{'clipped' if c else 'uniform'}-batch{b}-{k[0].name}-{k[1].name}"
        + ("-per_cell" if p else "")
        for s, c, b, k, p in DENSE_CASES
    ],
)
def test_march_matches_a_dense_matrix_leapfrog(strip, clipped, batch, kinds, per_cell):
    # An independent oracle: the textbook three-level scheme with a dense
    # Laplacian, one batch entry at a time, entry 0 taking the source. The
    # orders of operations differ; the largest drift measured over these
    # cases is 3e-15 of the field's largest value.
    rng = np.random.default_rng(5)
    xgrid = SpaceGrid1D.with_cells(0.0, 1.0, 10)
    ygrid = SpaceGrid1D.with_cells(0.0, 1.0, 8) if strip else None
    tgrid = (make_time_grid_clipped if clipped else make_time_grid)(1.0, 0.07 if clipped else 0.05)
    c = np.array([0.5, 0.5, 1.2, 1.2, 1.2, 0.8, 0.8, 0.8, 0.8, 0.5]) if per_cell else 0.9
    m = len(tgrid.times)
    shape = (11,) if ygrid is None else (11, 9)
    extra = () if batch is None else (batch,)
    u0, v0 = rng.standard_normal((2,) + shape + extra)
    g_left, g_right = rng.standard_normal((2, m) + shape[1:] + extra)
    lids = None if ygrid is None else tuple(rng.standard_normal((2, m, 11) + extra))
    bcs = [InterfaceTrace(kind, tgrid, np.zeros((m,) + shape[1:])) for kind in kinds]

    def source(*coords_and_t):
        return np.cos(sum(coords_and_t))

    got = wave._march(xgrid, ygrid, c, tgrid, u0, v0, *bcs, g_left, g_right, lids, source)
    for e in range(1 if batch is None else batch):
        entry = (lambda a: a) if batch is None else (lambda a: a[..., e])
        want = _dense_march(
            xgrid, ygrid, c, tgrid, entry(u0), entry(v0), kinds, entry(g_left), entry(g_right),
            None if lids is None else tuple(entry(lid) for lid in lids), source if e == 0 else None,
        )
        assert np.max(np.abs(entry(got) - want)) <= 1e-14 * np.max(np.abs(want))


# The fused update written out of place: one new array per term. The
# in-place update must give the same bits.


def _out_of_place_update(stencil, cur, other, tau, tau_prev, g_left, g_right, t=None):
    """The rows of u^{n+1} that boundary data does not own, out of place."""
    if tau_prev is None:
        alpha, weight, gamma = 1.0, tau, 0.5 * tau**2
    else:
        alpha, weight, gamma = (tau + tau_prev) / tau_prev, -tau / tau_prev, 0.5 * tau * (tau + tau_prev)
    dx, dy, rows = stencil.dx, stencil.dy, stencil.rows
    c2 = wave.wave_factors(stencil.c, dx, dy).c2
    c2 = c2[rows] if np.ndim(c2) else c2
    kx = gamma * c2 / dx**2
    ky = 0.0 if dy is None else gamma * c2 / dy**2
    ghost_left = (2.0 * cur[1] - 2.0 * dx * g_left)[None]
    ghost_right = (2.0 * cur[-2] + 2.0 * dx * g_right)[None]
    new = np.concatenate((ghost_left, cur[:-2] + cur[2:], ghost_right))[rows] * kx
    if dy is not None:
        y_sum = np.zeros_like(cur)
        y_sum[:, 1:-1] = cur[:, :-2] + cur[:, 2:]
        new = new + y_sum[rows] * ky
    new = new + cur[rows] * (alpha - 2.0 * kx - 2.0 * ky)
    new = new + other[rows] * weight
    for j, k in stencil.jumps:
        new[j - rows.start] += gamma * k * (cur[j + 1] - cur[j - 1])
    if stencil.source is not None:
        entry0 = new if new.ndim == len(stencil.coords) else new[..., 0]
        entry0 += gamma * stencil.source(*stencil.coords, t)
    return new


def _out_of_place_march(xgrid, ygrid, c, tgrid, u0, v0, kinds, g_left, g_right, lids, source):
    stencil = wave._Stencil(xgrid, ygrid, c, *kinds, source)
    steps, times = tgrid.steps.tolist(), tgrid.times
    lids = lids or (np.zeros(len(times)),) * 2
    u = np.zeros((len(times),) + u0.shape)
    u[0] = u0
    u[1, stencil.rows] = _out_of_place_update(stencil, u[0], v0, steps[0], None, g_left[0], g_right[0], times[0])
    stencil.pin(u[1], g_left[1], g_right[1], lids[0][1], lids[1][1])
    for n in range(1, len(steps)):
        u[n + 1, stencil.rows] = _out_of_place_update(
            stencil, u[n], u[n - 1], steps[n], steps[n - 1], g_left[n], g_right[n], times[n]
        )
        stencil.pin(u[n + 1], g_left[n + 1], g_right[n + 1], lids[0][n + 1], lids[1][n + 1])
    return u


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
def test_in_place_leapfrog_matches_the_out_of_place_loop(strip, clipped, batch, kinds):
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

    got = wave._march(xgrid, ygrid, 1.0, tgrid, u0, v0, *bcs, g_left, g_right, lids, source)
    want = _out_of_place_march(xgrid, ygrid, 1.0, tgrid, u0, v0, kinds, g_left, g_right, lids, source)
    assert np.array_equal(got, want)

    # The one step a clipped grid's response applies at build time.
    stencil = wave._Stencil(xgrid, ygrid, 1.0, *kinds)
    cur, prev = got[-2], got[-3]
    tau_prev, tau = tgrid.steps[-2:]
    step = stencil.step(cur, prev, tau, tau_prev, g_left[-1], g_right[-1])
    oracle = np.empty_like(cur)
    oracle[stencil.rows] = _out_of_place_update(stencil, cur, prev, tau, tau_prev, g_left[-1], g_right[-1])
    stencil.pin(oracle, g_left[-1], g_right[-1])
    assert np.array_equal(step, oracle)


UPDATE_CASES = [
    (strip, batch, kinds)
    for strip in (False, True)
    for batch in (None, 3)
    for kinds in ((TraceKind.NEUMANN, TraceKind.DIRICHLET), (TraceKind.DIRICHLET, TraceKind.NEUMANN))
]


@pytest.mark.parametrize(
    "strip, batch, kinds",
    UPDATE_CASES,
    ids=[
        f"{'strip' if s else '1d'}-batch{b}-{k[0].name}-{k[1].name}" for s, b, k in UPDATE_CASES
    ],
)
def test_update_on_non_contiguous_views_matches_contiguous_copies(strip, batch, kinds):
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
    for v, other in zip(views, views[::-1]):
        assert not v.flags.c_contiguous
        before = v.copy(), other.copy()
        got = np.zeros(v.shape)
        stencil.update(got, v, other, 0.04, 0.05, g_left, g_right, 0.3)
        assert np.array_equal(v, before[0]) and np.array_equal(other, before[1])
        want = _out_of_place_update(stencil, v, other, 0.04, 0.05, g_left, g_right, 0.3)
        assert np.array_equal(got[stencil.rows][owned], want[owned])
        contiguous = np.zeros(v.shape)
        stencil.update(
            contiguous, np.ascontiguousarray(v), np.ascontiguousarray(other), 0.04, 0.05, g_left, g_right, 0.3
        )
        assert np.array_equal(got, contiguous)


def _out_of_place_method(self, out, cur, other, tau, tau_prev, g_left, g_right, t=None):
    out[self.rows] = _out_of_place_update(self, cur, other, tau, tau_prev, g_left, g_right, t)


@pytest.mark.parametrize("clipped", [False, True])
def test_in_place_piecewise_monodomain_matches_the_out_of_place_loop(monkeypatch, clipped):
    problem = wave_problem(speed=(0.5, 2.0, 1.0))
    xgrid = SpaceGrid1D.with_spacing(0.0, 5.0, 0.1)
    tgrid = (make_time_grid_clipped if clipped else make_time_grid)(1.0, 0.03 if clipped else 0.025)
    partition = make_partition((0.0, 1.0, 3.0, 5.0))
    got = solve_monodomain(problem, xgrid, tgrid, partition=partition).values
    with monkeypatch.context() as patch:
        patch.setattr(wave._Stencil, "update", _out_of_place_method)
        want = solve_monodomain(problem, xgrid, tgrid, partition=partition).values
    assert np.array_equal(got, want)
