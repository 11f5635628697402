"""2D strip kernel: y-mode invariance, reduction to 1D, boundary handling."""

from __future__ import annotations

import numpy as np
import pytest

from wrkit.errors import CflViolation, ValidationError, WrongBoundaryKind
from wrkit.grids import (
    InterfaceTrace,
    SpaceGrid1D,
    TraceKind,
    make_time_grid,
    zero_trace,
)
from wrkit.kernels import solve_wave_strip_2d, wave_interface_flux
from wrkit.methods.workspace import solve_monodomain

from conftest import strip_problem


def strip_grids(dx=0.05, dy_cells=20, dt=0.02, T=0.4):
    xgrid = SpaceGrid1D.with_spacing(0.0, 1.0, dx)
    ygrid = SpaceGrid1D.with_cells(0.0, np.pi, dy_cells)
    tgrid = make_time_grid(T, dt)
    return xgrid, ygrid, tgrid


def solve_mode(mode, xgrid, ygrid, tgrid, c=1.0):
    x = xgrid.nodes[:, None]
    y = ygrid.nodes[None, :]
    u0 = x * (1.0 - x) * np.sin(mode * y)
    v0 = np.zeros_like(u0)
    m = len(tgrid.times)
    bottom = np.zeros((m, xgrid.n_nodes))
    top = np.zeros((m, xgrid.n_nodes))
    return solve_wave_strip_2d(
        xgrid,
        ygrid,
        c,
        tgrid,
        u0,
        v0,
        zero_trace(tgrid, ny=ygrid.n_cells),
        zero_trace(tgrid, ny=ygrid.n_cells),
        bottom,
        top,
    )


def test_zero_data_stays_zero():
    xgrid, ygrid, tgrid = strip_grids()
    m = len(tgrid.times)
    zeros = np.zeros((xgrid.n_nodes, ygrid.n_nodes))
    field = solve_wave_strip_2d(
        xgrid,
        ygrid,
        1.0,
        tgrid,
        zeros,
        zeros.copy(),
        zero_trace(tgrid, ny=ygrid.n_cells),
        zero_trace(tgrid, ny=ygrid.n_cells),
        np.zeros((m, xgrid.n_nodes)),
        np.zeros((m, xgrid.n_nodes)),
    )
    assert np.all(field.values == 0.0)


def test_sine_modes_in_y_stay_pure():
    # The y Laplacian has sin(n y) as a discrete eigenvector, so data of
    # one mode never leaks into the others.
    xgrid, ygrid, tgrid = strip_grids()
    field = solve_mode(2, xgrid, ygrid, tgrid)
    y = ygrid.nodes
    ny = ygrid.n_cells
    amplitude = np.max(np.abs(field.values))
    for other in (1, 3, 4, 5):
        coef = np.tensordot(field.values, np.sin(other * y), axes=([2], [0]))
        assert np.max(np.abs(coef)) / (0.5 * ny) <= 1e-12 * amplitude


def test_single_mode_reduces_to_1d_with_zeroth_order_term():
    # For u = U(x,t) sin(y) the strip scheme is exactly a 1D three-level
    # march with an extra reaction coefficient: the discrete eigenvalue
    # of the y difference, mu = 4 sin^2(dy/2) / dy^2.
    xgrid, ygrid, tgrid = strip_grids()
    c = 1.0
    field = solve_mode(1, xgrid, ygrid, tgrid)

    dy = ygrid.dx
    mu = 4.0 * np.sin(dy / 2.0) ** 2 / dy**2
    dx = xgrid.dx
    dt = tgrid.max_step
    x = xgrid.nodes
    n_nodes = xgrid.n_nodes
    U = np.zeros((len(tgrid.times), n_nodes))
    U[0] = x * (1.0 - x)

    def accel(row):
        a = np.zeros(n_nodes)
        a[1:-1] = c**2 * ((row[:-2] - 2.0 * row[1:-1] + row[2:]) / dx**2 - mu * row[1:-1])
        return a

    U[1] = U[0] + 0.5 * dt**2 * accel(U[0])
    U[1, 0] = U[1, -1] = 0.0
    for n in range(1, tgrid.n_steps):
        U[n + 1] = 2.0 * U[n] - U[n - 1] + dt**2 * accel(U[n])
        U[n + 1, 0] = U[n + 1, -1] = 0.0

    expected = U[:, :, None] * np.sin(ygrid.nodes)[None, None, :]
    assert np.max(np.abs(field.values - expected)) <= 1e-10


def test_cfl_guard_uses_both_spacings():
    xgrid, ygrid, _ = strip_grids()
    tgrid = make_time_grid(0.4, 0.05)  # fine in x alone would pass; 2D fails
    x = xgrid.nodes[:, None]
    y = ygrid.nodes[None, :]
    u0 = x * (1.0 - x) * np.sin(y)
    m = len(tgrid.times)
    with pytest.raises(CflViolation):
        solve_wave_strip_2d(
            xgrid,
            ygrid,
            1.0,
            tgrid,
            u0,
            np.zeros_like(u0),
            zero_trace(tgrid, ny=ygrid.n_cells),
            zero_trace(tgrid, ny=ygrid.n_cells),
            np.zeros((m, xgrid.n_nodes)),
            np.zeros((m, xgrid.n_nodes)),
        )


def test_strip_flux_shape_and_corner_rows():
    xgrid, ygrid, tgrid = strip_grids()
    field = solve_mode(1, xgrid, ygrid, tgrid)
    w = wave_interface_flux(field, "right", 1.0)
    assert w.shape == (len(tgrid.times), ygrid.n_nodes)
    np.testing.assert_array_equal(w[:, 0], 0.0)
    np.testing.assert_array_equal(w[:, -1], 0.0)
    # At t=0 the boundary column is pinned at zero, so the half-cell
    # corrections vanish and the sample is exactly the one-sided
    # quotient of x(1-x) sin(y) at x=1: -(0.95*0.05)/0.05 sin(y).
    np.testing.assert_allclose(
        w[0, 1:-1], -0.95 * np.sin(ygrid.nodes[1:-1]), atol=1e-12
    )


def test_monodomain_dispatch_2d():
    problem = strip_problem()
    xgrid, ygrid, tgrid = strip_grids(dt=0.04, T=0.24)
    field = solve_monodomain(problem, xgrid, tgrid, ygrid=ygrid)
    assert field.is_2d
    assert field.values.shape == (len(tgrid.times), xgrid.n_nodes, ygrid.n_nodes)
    x = xgrid.nodes[:, None]
    y = ygrid.nodes[None, :]
    np.testing.assert_array_equal(field.values[0], problem.initial_u(x, y))
    with pytest.raises(ValidationError, match="y grid"):
        solve_monodomain(problem, xgrid, tgrid)


@pytest.mark.parametrize("side", ["left", "right"])
def test_robin_boundary_rejected(side):
    xgrid, ygrid, tgrid = strip_grids()
    m = len(tgrid.times)
    robin = InterfaceTrace(TraceKind.ROBIN, tgrid, np.zeros((m, ygrid.n_nodes)), robin_p=1.0)
    zero = zero_trace(tgrid, ny=ygrid.n_cells)
    bcs = {"left": zero, "right": zero, side: robin}
    nodes = np.zeros((xgrid.n_nodes, ygrid.n_nodes))
    lids = np.zeros((m, xgrid.n_nodes))
    with pytest.raises(WrongBoundaryKind):
        solve_wave_strip_2d(
            xgrid, ygrid, 1.0, tgrid, nodes, nodes.copy(), bcs["left"], bcs["right"], lids, lids
        )
