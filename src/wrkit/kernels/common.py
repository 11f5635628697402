"""What the kernels share: data sampling, boundary trace checks, the half-cell flux and its magnitude rule."""

from __future__ import annotations

import numpy as np

from ..errors import IncompatibleGrids, WrongBoundaryKind
from ..grids import InterfaceTrace, SpaceGrid1D, TimeGrid, TraceKind, grids_equal
from .problems import SpaceTimeField, sample

__all__ = ["check_bc", "dirichlet_history", "strip_data", "half_cell_flux", "half_cell", "invalid_factor"]

_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


def check_bc(bc: InterfaceTrace, tgrid: TimeGrid, side: str, ny: int | None = None) -> None:
    """Reject a boundary trace off the solve's time grid or of the wrong shape.

    1D solvers leave ``ny`` at None; strip solvers pass their y cell
    count, and the trace then needs one column per y node.
    """
    if not grids_equal(bc.grid, tgrid):
        raise IncompatibleGrids(f"{side} boundary trace is not on the solve's time grid")
    if ny is None:
        if bc.is_2d:
            raise IncompatibleGrids(f"{side} boundary trace is 2D; this solver is 1D")
    elif not bc.is_2d or bc.samples.shape[1] != ny + 1:
        raise IncompatibleGrids(f"{side} boundary trace must have one column per y node")


def dirichlet_history(fn, tgrid: TimeGrid, ygrid: SpaceGrid1D | None = None) -> InterfaceTrace:
    """Physical x-boundary data sampled on ``tgrid``, as a Dirichlet trace.

    1D data takes ``t``; strip data takes ``(y, t)`` and gets one column
    per node of ``ygrid``.
    """
    t = tgrid.times
    if ygrid is None:
        values = sample(fn, t.shape, t)
    else:
        y = ygrid.nodes
        values = sample(fn, (len(t), len(y)), y[None, :], t[:, None])
    return InterfaceTrace(TraceKind.DIRICHLET, tgrid, values)


def strip_data(problem, xgrid: SpaceGrid1D, ygrid: SpaceGrid1D, tgrid: TimeGrid) -> list:
    """Initial value and rate on the strip nodes, bottom and top lid histories."""
    x, y, t = xgrid.nodes, ygrid.nodes, tgrid.times
    node_shape = (len(x), len(y))
    lid_shape = (len(t), len(x))
    return [
        sample(problem.initial_u, node_shape, x[:, None], y[None, :]),
        sample(problem.initial_ut, node_shape, x[:, None], y[None, :]),
        sample(problem.boundary_bottom, lid_shape, x[None, :], t[:, None]),
        sample(problem.boundary_top, lid_shape, x[None, :], t[:, None]),
    ]


def half_cell(dx, coef):
    """0.5 dx / coef, the flux's weight on the PDE's time term (coef is nu, or c^2)."""
    return 0.5 * dx / coef


def invalid_factor(factors) -> str | None:
    """Why a kernel's ``factors`` break the magnitude rule, or None.

    A divisor (one of ``factors.DIVISORS``) must be a normal float and
    every factor finite, in each entry; a factor that is None does not enter.
    """
    for field, name, value in zip(factors._fields, factors.NAMES, factors):
        if value is None:
            continue
        if field in factors.DIVISORS and not ((value >= _TINY) & (value <= _HUGE)).all():
            return f"{name} is not a normal float"
        if not np.isfinite(value).all():
            return f"{name} is not finite"
    return None


def half_cell_flux(
    field: SpaceTimeField,
    side: str,
    time_derivative,
    factors,
    source=None,
) -> np.ndarray:
    """The +x-oriented derivative history at one x boundary of a solve.

    The one-sided difference gets a half-cell correction whose second
    space derivative comes from the PDE itself,

        w = +/- [ (u_in - u_b)/dx - (dx/2) u_xx(b) ],
        u_xx(b) = (D_t u_b - f_b) / coef - u_yy(b),

    with coef = nu and D_t the first time difference for heat, coef = c^2
    and D_t the second one for the wave models, and u_yy the y part of
    the Laplacian on strips (absent in 1D); ``factors`` give dx/(2 coef)
    and dy^2 (:func:`.heat.heat_factors`, :func:`.wave.wave_factors`).
    ``time_derivative(ub, j)``
    returns D_t of the boundary history ``ub`` at x node ``j``. Only the
    boundary column and its neighbour are read. On strips the corner
    columns, which belong to the physical y boundary, are reported as
    zero. A field with a batch axis gives one history per entry and
    takes no source. Raises :class:`WrongBoundaryKind` at a Neumann
    boundary, where the derivative was the input.
    """
    if field.boundary_kind(side) is TraceKind.NEUMANN:
        raise WrongBoundaryKind(f"{side} boundary carried Neumann data; flux is not recoverable")
    if source is not None and field.values.ndim > 2 + field.is_2d:
        raise ValueError("a batched field takes no source")
    dx = field.xgrid.dx
    times = field.tgrid.times
    j0 = field.boundary_index(side)
    if side == "left":
        j1, sgn, x0 = 1, 1.0, field.xgrid.x_left
    else:
        j1, sgn, x0 = j0 - 1, -1.0, field.xgrid.x_right

    ub = field.values[:, j0]
    if source is None:
        fvals = 0.0
    elif field.is_2d:
        fvals = source(x0, field.ygrid.nodes[None, :], times[:, None])
    else:
        fvals = source(x0, times)

    w = sgn * ((field.values[:, j1] - ub) / dx - factors.half_cell * (time_derivative(ub, j0) - fvals))
    if field.is_2d:
        lap_y = np.zeros_like(ub)
        lap_y[:, 1:-1] = (ub[:, :-2] - 2.0 * ub[:, 1:-1] + ub[:, 2:]) / factors.dy2
        w += sgn * 0.5 * dx * lap_y
        w[:, 0] = 0.0
        w[:, -1] = 0.0
    return w
