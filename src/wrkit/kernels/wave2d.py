"""Explicit wave solver on a 2D strip (decomposition along x only).

Same three-level scheme as the 1D kernel with the five-point Laplacian,

    u^{n+1} = 2 u^n - u^{n-1} + (c dt)^2 (dxx + dyy) u^n + dt^2 f^n,

Taylor start included (the march is :func:`.common.leapfrog`), on a
strip (x_left, x_right) x (y0, y1). The y boundaries always carry
physical Dirichlet data (pinned rows, applied last so they own the
corner nodes); the x boundaries take Dirichlet or Neumann interface
traces, with one sample column per y node. Neumann ghost columns mirror
the 1D formula row by row. Robin data raises :class:`WrongBoundaryKind`,
as in the 1D kernel: Robin Schwarz, its only producer, diverges on
waves and is rejected for them.

Stability: c dt sqrt(1/dx^2 + 1/dy^2) <= 1 against the largest step.
"""

from __future__ import annotations

import numpy as np

from ..errors import CflViolation, WrongBoundaryKind
from ..grids import CFL_SLACK, InterfaceTrace, SpaceGrid1D, TimeGrid, TraceKind, cfl_number
from .common import check_bc, leapfrog
from .problems import SpaceTimeField

__all__ = ["solve_wave_strip_2d"]


def _ghost_column(v: np.ndarray, dx: float, bc: InterfaceTrace, n: int, side: str) -> np.ndarray:
    """Mirror ghost column next to a Neumann x boundary at time step n."""
    if side == "left":
        return v[1, :] - 2.0 * dx * bc.samples[n]
    return v[-2, :] + 2.0 * dx * bc.samples[n]


def solve_wave_strip_2d(
    xgrid: SpaceGrid1D,
    ygrid: SpaceGrid1D,
    c: float,
    tgrid: TimeGrid,
    initial_u: np.ndarray,
    initial_ut: np.ndarray,
    left_bc: InterfaceTrace,
    right_bc: InterfaceTrace,
    bottom: np.ndarray,
    top: np.ndarray,
    source=None,
) -> SpaceTimeField:
    """March the explicit wave scheme on one strip.

    ``initial_u``/``initial_ut`` are nodal arrays (nx+1, ny+1);
    ``bottom``/``top`` are pre-sampled physical Dirichlet histories of
    shape (M+1, nx+1) on the y boundaries. Raises
    :class:`WrongBoundaryKind` for Robin boundary data.
    """
    ny = ygrid.n_cells
    check_bc(left_bc, tgrid, "left", ny)
    check_bc(right_bc, tgrid, "right", ny)
    if TraceKind.ROBIN in (left_bc.kind, right_bc.kind):
        raise WrongBoundaryKind("the strip kernel takes Dirichlet or Neumann data, not Robin")
    if c <= 0:
        raise ValueError("wave speed must be positive")
    nx = xgrid.n_cells
    if nx < 2 or ny < 2:
        raise ValueError("a strip needs at least 2 cells in each direction")
    dx = xgrid.dx
    dy = ygrid.dx
    times = tgrid.times
    m = len(times)

    courant = cfl_number(c, dx, tgrid.max_step, dy)
    if courant > 1.0 + CFL_SLACK:
        raise CflViolation(f"c*dt*sqrt(1/dx^2+1/dy^2) = {courant!r} exceeds 1")

    u0 = np.asarray(initial_u, dtype=float)
    v0 = np.asarray(initial_ut, dtype=float)
    if u0.shape != (nx + 1, ny + 1) or v0.shape != (nx + 1, ny + 1):
        raise ValueError("initial data must be nodal (nx+1, ny+1) arrays")
    bottom = np.asarray(bottom, dtype=float)
    top = np.asarray(top, dtype=float)
    if bottom.shape != (m, nx + 1) or top.shape != (m, nx + 1):
        raise ValueError("bottom/top data must be (M+1, nx+1) histories")

    left_pinned = left_bc.kind is TraceKind.DIRICHLET
    right_pinned = right_bc.kind is TraceKind.DIRICHLET
    c2 = c**2
    if source is not None:
        xx = xgrid.nodes[:, None]
        yy = ygrid.nodes[None, :]

    u = np.empty((m, nx + 1, ny + 1))
    u[0] = u0

    def accel(n: int) -> np.ndarray:
        v = u[n]
        lap = np.zeros_like(v)
        # x part, ghost columns where the boundary is not pinned
        lap[1:-1, :] = (v[:-2, :] - 2.0 * v[1:-1, :] + v[2:, :]) / dx**2
        if not left_pinned:
            ghost = _ghost_column(v, dx, left_bc, n, "left")
            lap[0, :] = (ghost - 2.0 * v[0, :] + v[1, :]) / dx**2
        if not right_pinned:
            ghost = _ghost_column(v, dx, right_bc, n, "right")
            lap[-1, :] = (v[-2, :] - 2.0 * v[-1, :] + ghost) / dx**2
        # y part, interior rows only (y boundaries are pinned)
        lap[:, 1:-1] += (v[:, :-2] - 2.0 * v[:, 1:-1] + v[:, 2:]) / dy**2
        a = c2 * lap
        if source is not None:
            a = a + source(xx, yy, times[n])
        return a

    def pin(n: int) -> None:
        if left_pinned:
            u[n, 0, 1:-1] = left_bc.samples[n, 1:-1]
        if right_pinned:
            u[n, -1, 1:-1] = right_bc.samples[n, 1:-1]
        u[n, :, 0] = bottom[n]
        u[n, :, -1] = top[n]

    leapfrog(u, times, v0, accel, pin)

    return SpaceTimeField(
        xgrid=xgrid,
        tgrid=tgrid,
        values=u,
        left_kind=left_bc.kind,
        right_kind=right_bc.kind,
        ygrid=ygrid,
        initial_rate=v0,
    )
