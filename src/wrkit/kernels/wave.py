"""Explicit second-order wave solver on one subdomain, plus flux extraction.

Discretization: the three-level central scheme

    u^{n+1} = 2 u^n - u^{n-1} + (c dt/dx)^2 dxx u^n + dt^2 f^n,

started with a Taylor step that uses the initial rate w0 = u_t(x, 0),

    u^1 = u^0 + dt w0 + (dt^2/2) (c^2 dxx u^0 + f^0).

Time grids may have unequal steps (a clipped final step, for example);
the march in :func:`.common.leapfrog`, shared with the strip and the
piecewise-speed monodomain solves, replaces the second time difference
with its variable-step counterpart and reduces exactly to the above when
the steps are uniform. Stability requires the Courant number c dt/dx <= 1
(checked against the largest step); at exactly 1 the scheme transports
along characteristics without dispersion.

Boundary handling: Dirichlet nodes are pinned, and a Neumann boundary
eliminates a mirror ghost node using the +x oriented derivative data
(applied also inside the Taylor step, so the start is as accurate as the
march). Robin data raises :class:`WrongBoundaryKind`: its only producer
is Robin Schwarz, which diverges on waves and is rejected for them (see
:func:`wrkit.methods.swr.schwarz_shift`).

Flux extraction mirrors the heat version with the PDE-based half-cell
correction,

    w = +/- [ (u_in - u_b)/dx - (dx/(2 c^2)) * (dtt u_b - f_b) ],

where dtt is the discrete second time difference: the interior stencil
where available, a time-ghost form at t=0 built from the stored initial
rate (which reproduces the Taylor start identity exactly), and the
backward-shifted stencil at the final node (whose value no consumer's
march ever reads within the window). This pairing makes the monodomain
scheme the exact fixed point of the multidomain exchange.
"""

from __future__ import annotations

import numpy as np

from ..errors import CflViolation, WrongBoundaryKind
from ..grids import CFL_SLACK, InterfaceTrace, SpaceGrid1D, TimeGrid, TraceKind, cfl_number
from .common import check_bc, half_cell_flux, leapfrog
from .problems import SpaceTimeField

__all__ = ["solve_wave_subdomain", "wave_interface_flux"]


def _ghost_laplacian(v: np.ndarray, dx: float, left_bc, right_bc, n: int) -> np.ndarray:
    """Second space difference (times dx^2 yet to divide) with Neumann ghosts at step n."""
    lap = np.empty_like(v)
    lap[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    if left_bc.kind is TraceKind.NEUMANN:
        lap[0] = 2.0 * (v[1] - v[0]) - 2.0 * dx * left_bc.samples[n]
    else:
        lap[0] = 0.0  # pinned; never used
    if right_bc.kind is TraceKind.NEUMANN:
        lap[-1] = 2.0 * (v[-2] - v[-1]) + 2.0 * dx * right_bc.samples[n]
    else:
        lap[-1] = 0.0
    return lap


def solve_wave_subdomain(
    grid: SpaceGrid1D,
    c: float,
    tgrid: TimeGrid,
    initial_u: np.ndarray,
    initial_ut: np.ndarray,
    left_bc: InterfaceTrace,
    right_bc: InterfaceTrace,
    source=None,
) -> SpaceTimeField:
    """March the explicit wave scheme across the window on one subdomain.

    Raises :class:`WrongBoundaryKind` for Robin boundary data.
    """
    check_bc(left_bc, tgrid, "left")
    check_bc(right_bc, tgrid, "right")
    if TraceKind.ROBIN in (left_bc.kind, right_bc.kind):
        raise WrongBoundaryKind("the wave kernel takes Dirichlet or Neumann data, not Robin")
    if c <= 0:
        raise ValueError("wave speed must be positive")
    nx = grid.n_cells
    if nx < 2:
        raise ValueError("a subdomain needs at least 2 cells")
    dx = grid.dx
    x = grid.nodes
    times = tgrid.times

    courant = cfl_number(c, dx, tgrid.max_step)
    if courant > 1.0 + CFL_SLACK:
        raise CflViolation(f"c*dt/dx = {courant!r} exceeds 1")

    u0 = np.asarray(initial_u, dtype=float)
    v0 = np.asarray(initial_ut, dtype=float)
    if u0.shape != (nx + 1,) or v0.shape != (nx + 1,):
        raise ValueError("initial data must have one value per node")

    left_pinned = left_bc.kind is TraceKind.DIRICHLET
    right_pinned = right_bc.kind is TraceKind.DIRICHLET
    c2_over_dx2 = c**2 / dx**2

    u = np.empty((len(times), nx + 1))
    u[0] = u0

    def accel(n: int) -> np.ndarray:
        """Right-hand side c^2 dxx u^n + f^n at all nodes."""
        a = c2_over_dx2 * _ghost_laplacian(u[n], dx, left_bc, right_bc, n)
        if source is not None:
            a = a + source(x, times[n])
        return a

    def pin(n: int) -> None:
        if left_pinned:
            u[n, 0] = left_bc.samples[n]
        if right_pinned:
            u[n, nx] = right_bc.samples[n]

    leapfrog(u, times, v0, accel, pin)

    return SpaceTimeField(
        xgrid=grid,
        tgrid=tgrid,
        values=u,
        left_kind=left_bc.kind,
        right_kind=right_bc.kind,
        initial_rate=v0,
    )


def second_time_difference(values: np.ndarray, times: np.ndarray, rate0: np.ndarray) -> np.ndarray:
    """Discrete u_tt along axis 0, one row per time node.

    Interior nodes use the variable-step central stencil. t=0 uses the
    time-ghost form 2 (u^1 - u^0 - dt w0)/dt^2, which is exactly what the
    Taylor start implies. The final node reuses the last interior stencil
    (a backward shift); it exists only so the returned history is complete.
    """
    steps = np.diff(times)
    m = len(steps)
    out = np.empty_like(values)
    out[0] = 2.0 * (values[1] - values[0] - steps[0] * rate0) / steps[0] ** 2
    if m >= 2:
        col = (m - 1,) + (1,) * (values.ndim - 1)
        tau = steps[1:].reshape(col)
        tau_prev = steps[:-1].reshape(col)
        out[1:-1] = (
            2.0
            * (tau_prev * values[2:] - (tau + tau_prev) * values[1:-1] + tau * values[:-2])
            / (tau * tau_prev * (tau + tau_prev))
        )
        out[-1] = out[-2]
    else:
        out[-1] = out[0]
    return out


def wave_interface_flux(
    field: SpaceTimeField,
    side: str,
    c: float,
    source=None,
) -> InterfaceTrace:
    """Recover the +x-oriented boundary derivative history of a wave solve.

    Works for 1D fields and 2D strip fields (where the trace has one
    column per y node and the half-cell correction includes the y part of
    the Laplacian; strip corner rows, which belong to the physical
    boundary, are reported as zero). Raises :class:`WrongBoundaryKind`
    at a Neumann boundary.
    """
    times = field.tgrid.times

    def dtt(ub: np.ndarray, j: int) -> np.ndarray:
        if field.initial_rate is None:
            raise ValueError("wave flux extraction needs the field's initial rate")
        return second_time_difference(ub, times, field.initial_rate[j])

    return half_cell_flux(field, side, dtt, c**2, source)
