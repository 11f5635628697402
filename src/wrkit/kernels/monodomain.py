"""Single-domain reference solves on the undecomposed domain.

These produce the fields against which multidomain iterates are
measured. For piecewise-constant wave speeds the interface rows use an
asymmetric second difference weighted by the two neighbouring speeds
(continuity of the value and of the impedance-weighted slope c du/dx);
that coupling is exactly the one under which the glued multidomain
fixed point, whose solves exchange c du/dx as Neumann data, reproduces
the single-domain field node for node.
"""

from __future__ import annotations

import numpy as np

from ..errors import CflViolation
from ..grids import CFL_SLACK, InterfaceTrace, Partition1D, SpaceGrid1D, TimeGrid, TraceKind
from .common import dirichlet_history, leapfrog, strip_data
from .heat import solve_heat_subdomain
from .problems import HeatProblem, SpaceTimeField, Wave2DProblem, WaveProblem, sample
from .wave import solve_wave_strip_2d, solve_wave_subdomain

__all__ = ["solve_monodomain"]


def _piecewise_wave_weights(
    grid: SpaceGrid1D, partition: Partition1D, speeds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stencil weights (wl, wc, wr) of the second difference, per node.

    The acceleration row is (wl u_{j-1} + wc u_j + wr u_{j+1}) / dx^2.
    Nodes strictly inside subdomain i take the symmetric (c_i^2, -2c_i^2,
    c_i^2). An interface node between speeds cl and cr takes

        s * (cl, -(cl + cr), cr),   s = 2 cl cr / (cl + cr),

    which is what eliminating the one-sided ghosts against continuity of
    u and of c du/dx leaves behind; it reduces to the symmetric row when
    the speeds match.
    """
    speeds = np.asarray(speeds, dtype=float)
    if len(speeds) != partition.n_subdomains:
        raise ValueError("need one speed per subdomain")
    wl = np.empty(grid.n_nodes)
    wr = np.empty(grid.n_nodes)
    for i in range(1, partition.n_subdomains + 1):
        a, b = partition.bounds(i)
        ja, jb = grid.node_index(a), grid.node_index(b)
        wl[ja : jb + 1] = speeds[i - 1] ** 2
        wr[ja : jb + 1] = speeds[i - 1] ** 2
    for i in range(1, partition.n_interfaces + 1):
        j = grid.node_index(partition.interface_position(i))
        cl, cr = speeds[i - 1], speeds[i]
        s = 2.0 * cl * cr / (cl + cr)
        wl[j] = s * cl
        wr[j] = s * cr
    return wl, -(wl + wr), wr


def _solve_wave_piecewise(
    grid: SpaceGrid1D,
    tgrid: TimeGrid,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray],
    initial_u: np.ndarray,
    initial_ut: np.ndarray,
    left: InterfaceTrace,
    right: InterfaceTrace,
    source=None,
) -> SpaceTimeField:
    """Variable-coefficient version of the explicit wave march (Dirichlet ends)."""
    dx = grid.dx
    x = grid.nodes
    times = tgrid.times
    wl, wc, wr = weights

    courant = np.sqrt(0.5 * (wl + wr).max()) * tgrid.max_step / dx
    if courant > 1.0 + CFL_SLACK:
        raise CflViolation(f"max c*dt/dx = {courant!r} exceeds 1")

    u = np.empty((len(times), grid.n_nodes))
    u[0] = initial_u
    a = np.zeros_like(u[0])  # the end entries stay 0; the march reads each a^n once

    def accel(n: int) -> np.ndarray:
        a[1:-1] = (
            wl[1:-1] * u[n, :-2] + wc[1:-1] * u[n, 1:-1] + wr[1:-1] * u[n, 2:]
        ) / dx**2
        if source is not None:
            a[1:-1] += source(x[1:-1], times[n])
        return a

    def pin(n: int) -> None:
        u[n, 0] = left.samples[n]
        u[n, -1] = right.samples[n]

    leapfrog(u, times, initial_ut, accel, pin)

    return SpaceTimeField(
        xgrid=grid,
        tgrid=tgrid,
        values=u,
        left_kind=TraceKind.DIRICHLET,
        right_kind=TraceKind.DIRICHLET,
        initial_rate=np.asarray(initial_ut, dtype=float),
    )


def solve_monodomain(
    problem,
    xgrid: SpaceGrid1D,
    tgrid: TimeGrid,
    ygrid: SpaceGrid1D | None = None,
    partition: Partition1D | None = None,
) -> SpaceTimeField:
    """Solve the stated problem on the full domain with physical boundary data."""
    if isinstance(problem, HeatProblem):
        left = dirichlet_history(problem.boundary_left, tgrid)
        right = dirichlet_history(problem.boundary_right, tgrid)
        u0 = sample(problem.initial, xgrid.nodes.shape, xgrid.nodes)
        return solve_heat_subdomain(
            xgrid, problem.nu, tgrid, u0, left, right, problem.source
        )

    if isinstance(problem, WaveProblem):
        left = dirichlet_history(problem.boundary_left, tgrid)
        right = dirichlet_history(problem.boundary_right, tgrid)
        u0 = sample(problem.initial_u, xgrid.nodes.shape, xgrid.nodes)
        v0 = sample(problem.initial_ut, xgrid.nodes.shape, xgrid.nodes)
        if np.ndim(problem.speed) == 0:
            return solve_wave_subdomain(
                xgrid, float(problem.speed), tgrid, u0, v0, left, right, problem.source
            )
        if partition is None:
            raise ValueError("per-subdomain speeds need the partition")
        weights = _piecewise_wave_weights(xgrid, partition, problem.speed)
        return _solve_wave_piecewise(xgrid, tgrid, weights, u0, v0, left, right, problem.source)

    if isinstance(problem, Wave2DProblem):
        if ygrid is None:
            raise ValueError("2D problems need a y grid")
        left = dirichlet_history(problem.boundary_left, tgrid, ygrid)
        right = dirichlet_history(problem.boundary_right, tgrid, ygrid)
        u0, v0, bottom, top = strip_data(problem, xgrid, ygrid, tgrid)
        return solve_wave_strip_2d(
            xgrid, ygrid, problem.speed, tgrid, u0, v0, left, right, bottom, top, problem.source
        )

    raise TypeError(f"unsupported problem type: {type(problem).__name__}")
