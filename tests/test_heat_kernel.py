"""Implicit heat kernel: one-step oracle, flux extraction, stability facts."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from wrkit.errors import SingularSystem, WrongBoundaryKind
from wrkit.grids import (
    InterfaceTrace,
    SpaceGrid1D,
    TraceKind,
    make_partition,
    make_time_grid,
    make_time_grid_clipped,
    zero_trace,
)
from wrkit.kernels import (
    heat,
    heat_interface_flux,
    solve_heat_subdomain,
)
from wrkit.methods.workspace import solve_monodomain

from conftest import dirichlet_trace, heat_problem, neumann_trace


def one_step_setup():
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.25)
    tgrid = make_time_grid(0.0625, 0.0625)
    u0 = np.sin(np.pi * grid.nodes)
    left = zero_trace(tgrid)
    right = zero_trace(tgrid)
    return grid, tgrid, u0, left, right


def one_step_oracle(u0):
    # Dense backward-Euler step with r = nu dt/dx^2 = 1 and pinned ends.
    r = 1.0
    A = np.diag([1 + 2 * r] * 3) + np.diag([-r, -r], 1) + np.diag([-r, -r], -1)
    return np.linalg.solve(A, u0[1:4])


def test_one_step_against_dense_solve():
    grid, tgrid, u0, left, right = one_step_setup()
    field = solve_heat_subdomain(grid, 1.0, tgrid, u0, left, right)
    np.testing.assert_allclose(field.values[1, 1:4], one_step_oracle(u0), rtol=1e-13)
    np.testing.assert_allclose(
        field.values[1, 1:4], [0.44590, 0.63060, 0.44590], atol=1e-5
    )
    assert field.values[1, 0] == 0.0 and field.values[1, 4] == 0.0
    np.testing.assert_array_equal(field.values[0], u0)


def test_clipped_window_against_dense_march():
    # Steps 0.3, 0.3, 0.3, 0.1: two step sizes, so the march needs two
    # factors. The oracle is the docstring's stencil, row by row, with the
    # Dirichlet node kept as an equation u_0 = g and the Robin row unscaled.
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.1)
    tgrid = make_time_grid_clipped(1.0, 0.3)
    np.testing.assert_allclose(np.diff(tgrid.times), [0.3, 0.3, 0.3, 0.1], rtol=1e-12)
    nu, p, dx, nx = 1.0, 2.0, grid.dx, grid.n_cells
    u0 = np.cos(grid.nodes)
    g = 1.0 + np.sin(3.0 * tgrid.times)
    rho = np.cos(2.0 * tgrid.times)
    left = InterfaceTrace(TraceKind.DIRICHLET, tgrid, g)
    right = InterfaceTrace(TraceKind.ROBIN, tgrid, rho, robin_p=p)
    field = solve_heat_subdomain(grid, nu, tgrid, u0, left, right)

    expect = [u0]
    for n, dt in enumerate(np.diff(tgrid.times)):
        r = nu * dt / dx**2
        A = np.zeros((nx + 1, nx + 1))
        b = expect[-1].copy()
        A[0, 0], b[0] = 1.0, g[n + 1]
        for i in range(1, nx):
            A[i, i - 1 : i + 2] = (-r, 1.0 + 2.0 * r, -r)
        A[nx, nx - 1 : nx + 1] = (-2.0 * r, 1.0 + 2.0 * r + 2.0 * dx * r * p)
        b[nx] += 2.0 * r * dx * rho[n + 1]
        expect.append(np.linalg.solve(A, b))
    np.testing.assert_allclose(field.values, np.array(expect), rtol=0, atol=1e-13)


def _march_one(grid, nu, tgrid, u0, left_bc, right_bc, g_left, g_right, source=None):
    """The kernel's march of one block."""
    return heat._march(tgrid, [heat._Block(grid, nu, u0, left_bc, right_bc, g_left, g_right, source)])[0]


def test_non_finite_step_raises():
    # r = 2500: the Neumann row adds 2 r dx * 1e308 = inf to the right-hand side.
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.02)
    tgrid = make_time_grid(1.0, 1.0)
    right = neumann_trace(tgrid, lambda t: np.full_like(t, 1e308))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        solve_heat_subdomain(grid, 1.0, tgrid, np.zeros(grid.n_nodes), zero_trace(tgrid), right)
    # The same with a batch axis, the huge data in the last entry only.
    g = np.zeros((2, 3))
    g[:, -1] = 1e308
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        _march_one(grid, 1.0, tgrid, np.zeros((grid.n_nodes, 3)), zero_trace(tgrid), right, np.zeros_like(g), g)


def test_non_positive_pivot_raises_singular_system():
    # A Robin end with p far below zero makes its halved diagonal entry
    # 0.5 (1 + 2r + 2 dx r p) negative, so the factor has no positive pivot.
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.1)
    tgrid = make_time_grid(1.0, 0.1)
    left = InterfaceTrace(TraceKind.ROBIN, tgrid, np.zeros(len(tgrid.times)), robin_p=-100.0)
    with pytest.raises(SingularSystem, match="dpttrf"):
        solve_heat_subdomain(grid, 1.0, tgrid, np.zeros(grid.n_nodes), left, zero_trace(tgrid))


KIND_PAIRS = list(itertools.product((TraceKind.DIRICHLET, TraceKind.NEUMANN, TraceKind.ROBIN), repeat=2))
KIND_IDS = [f"{a.name}-{b.name}" for a, b in KIND_PAIRS]


def _source(x, t):
    return np.cos(3.0 * x) * (1.0 + t)


def _batch_setup(kinds, tgrid, entries=3, seed=0):
    """Kinds with Robin p, random initial data and boundary data with a batch axis."""
    rng = np.random.default_rng(seed)
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.1)
    m = len(tgrid.times)
    bcs = [
        InterfaceTrace(kind, tgrid, np.zeros(m), robin_p=p if kind is TraceKind.ROBIN else None)
        for kind, p in zip(kinds, (1.5, 0.7))
    ]
    u0 = rng.standard_normal((grid.n_nodes, entries))
    g_left, g_right = rng.standard_normal((2, m, entries))
    return grid, bcs, u0, g_left, g_right


@pytest.mark.parametrize("kinds", KIND_PAIRS, ids=KIND_IDS)
def test_batched_entries_are_single_marches(kinds):
    # A clipped grid, so the march uses two factors; entry 0 takes the source.
    tgrid = make_time_grid_clipped(1.0, 0.03)
    grid, bcs, u0, g_left, g_right = _batch_setup(kinds, tgrid)
    batched = _march_one(grid, 0.7, tgrid, u0, *bcs, g_left, g_right, _source)
    for entry in range(u0.shape[1]):
        single = _march_one(
            grid, 0.7, tgrid, u0[:, entry], *bcs, g_left[:, entry], g_right[:, entry],
            _source if entry == 0 else None,
        )
        assert np.array_equal(batched[..., entry], single), entry


def _dense_march(grid, nu, times, u0, bcs, g_left, g_right, source):
    """Backward Euler row by row: Dirichlet nodes kept as u = g, ghost rows unscaled."""
    nx, dx = grid.n_cells, grid.dx
    rows = [u0]
    for n, dt in enumerate(np.diff(times)):
        r = nu * dt / dx**2
        A = np.zeros((nx + 1, nx + 1))
        b = rows[-1] + dt * source(grid.nodes, times[n + 1])
        for i in range(1, nx):
            A[i, i - 1 : i + 2] = (-r, 1.0 + 2.0 * r, -r)
        for j, inner, bc, g, sign in ((0, 1, bcs[0], g_left, -1.0), (nx, nx - 1, bcs[1], g_right, 1.0)):
            if bc.kind is TraceKind.DIRICHLET:
                A[j, j], b[j] = 1.0, g[n + 1]
                continue
            A[j, j], A[j, inner] = 1.0 + 2.0 * r, -2.0 * r
            if bc.kind is TraceKind.ROBIN:
                A[j, j] += 2.0 * dx * r * bc.robin_p
                b[j] += 2.0 * r * dx * g[n + 1]
            else:
                b[j] += sign * 2.0 * r * dx * g[n + 1]
        rows.append(np.linalg.solve(A, b))
    return np.array(rows)


@pytest.mark.parametrize("kinds", KIND_PAIRS, ids=KIND_IDS)
def test_batched_march_against_dense_backward_euler(kinds):
    tgrid = make_time_grid(0.5, 0.02)
    grid, bcs, u0, g_left, g_right = _batch_setup(kinds, tgrid, seed=1)
    field = _march_one(grid, 0.7, tgrid, u0, *bcs, g_left, g_right, _source)
    for entry in range(u0.shape[1]):
        f = _source if entry == 0 else (lambda x, t: np.zeros_like(x))
        want = _dense_march(grid, 0.7, tgrid.times, u0[:, entry], bcs, g_left[:, entry], g_right[:, entry], f)
        assert np.max(np.abs(field[..., entry] - want)) <= 1e-13 * np.max(np.abs(want)), entry


def test_one_factor_per_step_size(monkeypatch):
    # np.diff of a uniform grid takes several float values; they share one
    # factor. A clipped grid adds one for its last step.
    calls = []
    real = heat.dpttrf
    monkeypatch.setattr(heat, "dpttrf", lambda *a: calls.append(1) or real(*a))
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.02)
    uniform = make_time_grid(2.0, 0.004)
    assert len(np.unique(np.diff(uniform.times))) > 1
    for tgrid, factors in ((uniform, 1), (make_time_grid_clipped(2.0, 0.0037), 2)):
        calls.clear()
        assert tgrid.uniform is (factors == 1)
        solve_heat_subdomain(
            grid, 1.0, tgrid, np.sin(np.pi * grid.nodes), zero_trace(tgrid), zero_trace(tgrid)
        )
        assert len(calls) == factors


def test_a_block_march_is_each_block_marched_alone(monkeypatch):
    # Blocks of other widths, kinds, diffusivities and batches, two with a
    # source, on a clipped grid. Each entry is one block of the system with
    # a zero coupling to the next, so its bits are those of its own march,
    # and the whole march is one factor per step size and one solve per step.
    tgrid = make_time_grid_clipped(1.0, 0.03)
    m = len(tgrid.times)
    rng = np.random.default_rng(4)
    D, N, R = TraceKind.DIRICHLET, TraceKind.NEUMANN, TraceKind.ROBIN
    blocks = []
    for kinds, width, nu, batch, source in (
        ((D, N), 1.0, 0.7, (3,), _source),
        ((N, R), 1.5, 0.7, (), None),
        ((D, D), 0.2, 1.3, (2,), None),  # two cells: one unknown per entry
        ((R, D), 0.5, 0.7, (), _source),
        ((N, N), 1.0, 0.4, (1,), None),
    ):
        grid = SpaceGrid1D.with_spacing(0.0, width, 0.1)
        bcs = [
            InterfaceTrace(kind, tgrid, np.zeros(m), robin_p=p if kind is R else None)
            for kind, p in zip(kinds, (1.5, 0.7))
        ]
        u0 = rng.standard_normal((grid.n_nodes,) + batch)
        g_left, g_right = rng.standard_normal((2, m) + batch)
        blocks.append(heat._Block(grid, nu, u0, *bcs, g_left, g_right, source))
    calls = {"dpttrf": 0, "dpttrs": 0}
    for name in calls:
        real = getattr(heat, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(heat, name, counted)
    fields = heat._march(tgrid, blocks)
    assert calls == {"dpttrf": 2, "dpttrs": tgrid.n_steps}
    for block, field in zip(blocks, fields):
        assert field.shape == (m,) + block.initial.shape
        assert np.array_equal(field, heat._march(tgrid, [block])[0])
        if block.initial.ndim == 2:
            for entry in range(block.initial.shape[1]):
                alone = block._replace(
                    initial=block.initial[:, entry],
                    g_left=block.g_left[:, entry],
                    g_right=block.g_right[:, entry],
                    source=block.source if entry == 0 else None,
                )
                assert np.array_equal(field[..., entry], heat._march(tgrid, [alone])[0]), entry


def test_one_step_left_flux():
    grid, tgrid, u0, left, right = one_step_setup()
    field = solve_heat_subdomain(grid, 1.0, tgrid, u0, left, right)
    w = heat_interface_flux(field, "left", 1.0)
    # Boundary value stays 0, so the half-cell time correction vanishes
    # and the flux is the plain difference quotient u_1/dx.
    expect = one_step_oracle(u0)[0] / 0.25
    assert w[1] == pytest.approx(expect, rel=1e-13)
    assert w[1] == pytest.approx(1.78360, abs=5e-5)
    assert w.shape == tgrid.times.shape


def test_zero_data_stays_zero():
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.05)
    tgrid = make_time_grid(1.0, 0.1)
    field = solve_heat_subdomain(
        grid, 1.0, tgrid, np.zeros(grid.n_nodes), zero_trace(tgrid), zero_trace(tgrid)
    )
    assert np.all(field.values == 0.0)
    assert np.all(heat_interface_flux(field, "left", 1.0) == 0.0)
    assert np.all(heat_interface_flux(field, "right", 1.0) == 0.0)


def test_steady_linear_profile_and_unit_flux():
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.1)
    tgrid = make_time_grid(2.0, 0.1)
    left = dirichlet_trace(tgrid, lambda t: np.zeros_like(t))
    right = dirichlet_trace(tgrid, lambda t: np.ones_like(t))
    field = solve_heat_subdomain(grid, 1.0, tgrid, grid.nodes.copy(), left, right)
    np.testing.assert_allclose(
        field.values, np.broadcast_to(grid.nodes, field.values.shape), atol=1e-12
    )
    for side in ("left", "right"):
        w = heat_interface_flux(field, side, 1.0)
        np.testing.assert_allclose(w, 1.0, atol=1e-12)


def test_neumann_boundary_steady_state():
    # Imposing the exact slope on the left keeps u = x steady.
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.1)
    tgrid = make_time_grid(1.0, 0.05)
    left = neumann_trace(tgrid, lambda t: np.ones_like(t))
    right = dirichlet_trace(tgrid, lambda t: np.ones_like(t))
    field = solve_heat_subdomain(grid, 1.0, tgrid, grid.nodes.copy(), left, right)
    np.testing.assert_allclose(
        field.values, np.broadcast_to(grid.nodes, field.values.shape), atol=1e-12
    )


def test_robin_boundary_steady_state():
    # Outward-oriented Robin data for u = x at the left end: -1 + p*0.
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.1)
    tgrid = make_time_grid(1.0, 0.05)
    p = 2.0
    left = InterfaceTrace(
        TraceKind.ROBIN, tgrid, -np.ones(len(tgrid.times)), robin_p=p
    )
    right = dirichlet_trace(tgrid, lambda t: np.ones_like(t))
    field = solve_heat_subdomain(grid, 1.0, tgrid, grid.nodes.copy(), left, right)
    np.testing.assert_allclose(
        field.values, np.broadcast_to(grid.nodes, field.values.shape), atol=1e-11
    )


def test_flux_not_recoverable_at_neumann_boundary():
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.1)
    tgrid = make_time_grid(1.0, 0.05)
    left = neumann_trace(tgrid, lambda t: np.ones_like(t))
    right = dirichlet_trace(tgrid, lambda t: np.ones_like(t))
    field = solve_heat_subdomain(grid, 1.0, tgrid, grid.nodes.copy(), left, right)
    with pytest.raises(WrongBoundaryKind):
        heat_interface_flux(field, "left", 1.0)


def test_maximum_principle_without_source():
    rng = np.random.default_rng(3)
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 0.05)
    tgrid = make_time_grid(1.0, 0.02)
    u0 = rng.uniform(-2.0, 2.0, grid.n_nodes)
    gl = rng.uniform(-2.0, 2.0, len(tgrid.times))
    gr = rng.uniform(-2.0, 2.0, len(tgrid.times))
    gl[0], gr[0] = u0[0], u0[-1]
    field = solve_heat_subdomain(
        grid,
        1.0,
        tgrid,
        u0,
        InterfaceTrace(TraceKind.DIRICHLET, tgrid, gl),
        InterfaceTrace(TraceKind.DIRICHLET, tgrid, gr),
    )
    lo = min(u0.min(), gl.min(), gr.min())
    hi = max(u0.max(), gl.max(), gr.max())
    assert field.values.min() >= lo - 1e-12
    assert field.values.max() <= hi + 1e-12


def test_manufactured_solution_first_order_in_dt():
    # u = exp(-t) sin(pi x) with the matching source; errors halve with dt.
    nu = 1.0
    grid = SpaceGrid1D.with_spacing(0.0, 1.0, 1.0 / 200)

    def source(x, t):
        return (nu * np.pi**2 - 1.0) * np.exp(-t) * np.sin(np.pi * x)

    def exact(x, t):
        return np.exp(-t) * np.sin(np.pi * x)

    errors = []
    for dt in (0.1, 0.05, 0.025):
        tgrid = make_time_grid(1.0, dt)
        field = solve_heat_subdomain(
            grid,
            nu,
            tgrid,
            np.sin(np.pi * grid.nodes),
            zero_trace(tgrid),
            zero_trace(tgrid),
            source=source,
        )
        ref = exact(grid.nodes[None, :], tgrid.times[:, None])
        errors.append(np.max(np.abs(field.values - ref)))
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.4)
    assert errors[1] / errors[2] == pytest.approx(2.0, abs=0.4)


def test_two_subdomain_split_reproduces_monodomain():
    # Dirichlet solve left of the interface, flux hand-off, Neumann solve
    # right: the split is algebraically identical to the single-domain
    # factorization, so the interface history matches at machine level.
    problem = heat_problem()
    partition = make_partition((0.0, 2.0, 5.0))
    xgrid = SpaceGrid1D.with_spacing(0.0, 5.0, 0.05)
    tgrid = make_time_grid(2.0, 0.02)
    mono = solve_monodomain(problem, xgrid, tgrid)
    j = xgrid.node_index(2.0)
    trace = InterfaceTrace(TraceKind.DIRICHLET, tgrid, mono.values[:, j])

    left_grid = SpaceGrid1D.with_spacing(0.0, 2.0, 0.05)
    right_grid = SpaceGrid1D.with_spacing(2.0, 5.0, 0.05)
    gl = dirichlet_trace(tgrid, lambda t: t**2)
    gr = dirichlet_trace(tgrid, lambda t: t**2 * np.exp(-t))
    u0 = problem.initial
    left_field = solve_heat_subdomain(
        left_grid, 1.0, tgrid, u0(left_grid.nodes), gl, trace
    )
    flux = InterfaceTrace(TraceKind.NEUMANN, tgrid, heat_interface_flux(left_field, "right", 1.0))
    right_field = solve_heat_subdomain(
        right_grid, 1.0, tgrid, u0(right_grid.nodes), flux, gr
    )
    np.testing.assert_allclose(
        right_field.values[:, 0], mono.values[:, j], atol=1e-12
    )
    # The glued interior agrees too, not just the interface history.
    np.testing.assert_allclose(
        left_field.values, mono.values[:, : j + 1], atol=1e-12
    )
    np.testing.assert_allclose(
        right_field.values, mono.values[:, j:], atol=1e-12
    )
