"""Backward-Euler heat solver on one subdomain, plus flux extraction.

Discretization: implicit first-order time stepping with the standard
three-point second difference,

    (u^{n+1} - u^n)/dt = nu * dxx u^{n+1} + f^{n+1},

so each step solves a tridiagonal system with r = nu dt/dx^2 on the
diagonal pattern (-r, 1+2r, -r). Boundary conditions:

* Dirichlet: the node is pinned and removed from the unknown set; its
  coupling moves to the right-hand side.
* Neumann (given w = u_x in +x orientation): a mirror ghost node
  eliminates the derivative, u_ghost = u_in -/+ 2 dx w (left/right), and
  the boundary row becomes (1+2r) u_b - 2r u_in = rhs -/+ 2 r dx w.
* Robin (given rho = (d/dn + p) u, outward normal): same ghost trick,
  adding 2 dx r p to the boundary diagonal and 2 r dx rho to the rhs.

Neumann/Robin rows are scaled by 1/2, which symmetrizes the matrix; it
is then positive definite for every r > 0 (and p > 0), so one banded
Cholesky factorization per distinct step size serves the whole window.
Each step is one LAPACK ``dpbtrs`` call on the cached factor, and the
finished field is checked for infs and NaNs once.

The march may carry a trailing batch axis: several right-hand sides
with the same boundary kinds step together, one ``dpbtrs`` column each,
with the same arithmetic per column as a march of that column alone.
Entry 0 alone takes the source. The response builds of
``wrkit.methods.workspace`` march a particular part and one impulse per
interface side as one batch; :func:`solve_heat_subdomain` marches the
same loop without the axis. An axis of length one would turn each
step's scalar boundary updates into array operations and about double
the step's cost (11.8 against 5.7 us for 100 nodes on a 2-vCPU Xeon),
which the monodomain reference solve would pay.

Flux extraction recovers u_x at a boundary from the one-sided difference
plus a half-cell correction that replaces the second space derivative
through the PDE itself:

    w = +/- [ (u_in - u_b)/dx - (dx/(2 nu)) * (du_b/dt - f_b) ]

with the backward time difference at each step (the formula lives in
:func:`.common.half_cell_flux`, shared with the wave kernels). With this
exact pairing the flux extracted from a subdomain solve equals the
centered difference of the underlying single-domain solution whenever
the subdomain data came from that solution: the multidomain fixed point
is the monodomain scheme.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded
from scipy.linalg.lapack import dpbtrs

from ..errors import SingularSystem
from ..grids import InterfaceTrace, SpaceGrid1D, TimeGrid, TraceKind
from .common import check_bc, half_cell_flux
from .problems import SpaceTimeField

__all__ = ["solve_heat_subdomain", "heat_interface_flux"]


def _factorize(ab: np.ndarray):
    try:
        return cholesky_banded(ab, lower=False)
    except LinAlgError as exc:  # defensive: the scaled system is SPD
        raise SingularSystem(str(exc)) from exc


def _build_matrix(r: float, dx: float, n_unk: int, left_bc, right_bc, left_open: bool, right_open: bool):
    """Upper banded (2, n) matrix for one step size.

    ``left_open``/``right_open`` say whether the boundary node is an
    unknown (Neumann/Robin) rather than pinned (Dirichlet).
    """
    ab = np.zeros((2, n_unk))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    if left_open:
        diag = 1.0 + 2.0 * r
        if left_bc.kind is TraceKind.ROBIN:
            diag += 2.0 * dx * r * left_bc.robin_p
        ab[1, 0] = 0.5 * diag
    if right_open:
        diag = 1.0 + 2.0 * r
        if right_bc.kind is TraceKind.ROBIN:
            diag += 2.0 * dx * r * right_bc.robin_p
        ab[1, -1] = 0.5 * diag
    return ab


class _Steps:
    """Backward-Euler steps on one subdomain for fixed boundary kinds.

    One banded Cholesky factor per distinct step size, cached. Nodal
    arrays have x on axis 0; a trailing axis holds a batch of rows,
    which one multi-right-hand-side ``dpbtrs`` call solves together.
    """

    def __init__(self, grid: SpaceGrid1D, nu: float, left_bc: InterfaceTrace, right_bc: InterfaceTrace):
        self.nu = nu
        self.dx = grid.dx
        self.left_bc, self.right_bc = left_bc, right_bc
        self.left_open = left_bc.kind is not TraceKind.DIRICHLET
        self.right_open = right_bc.kind is not TraceKind.DIRICHLET
        self.lo = 0 if self.left_open else 1
        self.hi = grid.n_cells if self.right_open else grid.n_cells - 1
        self.x_unk = grid.nodes[self.lo : self.hi + 1]
        self._factors: dict[float, tuple] = {}

    def step(self, cur: np.ndarray, out: np.ndarray, dt: float, g_left, g_right, f=None) -> None:
        """Write u^{n+1} into ``out`` from u^n in ``cur``, the boundary data at n+1 and f^{n+1}.

        With a batch axis on ``cur`` and ``out``, ``g_*`` hold one value
        per entry and ``f``, if given, goes to entry 0 only.
        """
        lo, hi, dx = self.lo, self.hi, self.dx
        if dt not in self._factors:
            r = self.nu * dt / dx**2
            ab = _build_matrix(
                r, dx, hi - lo + 1, self.left_bc, self.right_bc, self.left_open, self.right_open
            )
            self._factors[dt] = (_factorize(ab), r)
        cb, r = self._factors[dt]

        b = cur[lo : hi + 1].copy()
        if f is not None:
            entry0 = b if b.ndim == 1 else b[:, 0]
            entry0 += dt * f

        if self.left_open:
            if self.left_bc.kind is TraceKind.NEUMANN:
                b[0] -= 2.0 * r * dx * g_left
            else:
                b[0] += 2.0 * r * dx * g_left
            b[0] *= 0.5
        else:
            b[0] += r * g_left
        if self.right_open:
            # Neumann and Robin enter with the same sign at the right end.
            b[-1] += 2.0 * r * dx * g_right
            b[-1] *= 0.5
        else:
            b[-1] += r * g_right

        out[lo : hi + 1], info = dpbtrs(cb, b, lower=0, overwrite_b=1)
        if info != 0:
            raise SingularSystem(f"dpbtrs failed with info = {info}")
        if not self.left_open:
            out[0] = g_left
        if not self.right_open:
            out[-1] = g_right


def _march(
    grid: SpaceGrid1D,
    nu: float,
    tgrid: TimeGrid,
    initial: np.ndarray,
    left_bc: InterfaceTrace,
    right_bc: InterfaceTrace,
    g_left: np.ndarray,
    g_right: np.ndarray,
    source=None,
) -> np.ndarray:
    """March the implicit scheme across the window: ``(M+1, nx+1)``, or ``(M+1, nx+1, batch)``.

    ``left_bc``/``right_bc`` give the boundary kinds (and Robin p) of
    every entry; their data are ``g_left``/``g_right``, ``(M+1,)`` or
    ``(M+1, batch)``. ``initial`` is ``(nx+1,)`` or ``(nx+1, batch)``.
    The source goes to entry 0 alone.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    nx = grid.n_cells
    if nx < 2:
        raise ValueError("a subdomain needs at least 2 cells")
    if initial.shape[:1] != (nx + 1,) or initial.ndim > 2:
        raise ValueError("initial data must have one value per node")
    times = tgrid.times

    steps = _Steps(grid, nu, left_bc, right_bc)
    u = np.empty((len(times),) + initial.shape)
    u[0] = initial
    for n, dt in enumerate(np.diff(times)):
        f = None if source is None else source(steps.x_unk, times[n + 1])
        steps.step(u[n], u[n + 1], dt, g_left[n + 1], g_right[n + 1], f)
    if not np.isfinite(u).all():
        raise ValueError("array must not contain infs or NaNs")
    return u


def solve_heat_subdomain(
    grid: SpaceGrid1D,
    nu: float,
    tgrid: TimeGrid,
    initial: np.ndarray,
    left_bc: InterfaceTrace,
    right_bc: InterfaceTrace,
    source=None,
) -> SpaceTimeField:
    """March the implicit heat scheme across the window on one subdomain.

    ``initial`` holds nodal values of u(x, 0); the boundary traces must
    live on ``tgrid``. Returns the full space-time field.
    """
    check_bc(left_bc, tgrid, "left")
    check_bc(right_bc, tgrid, "right")
    u0 = np.asarray(initial, dtype=float)
    u = _march(grid, nu, tgrid, u0, left_bc, right_bc, left_bc.samples, right_bc.samples, source)
    return SpaceTimeField(
        xgrid=grid,
        tgrid=tgrid,
        values=u,
        left_kind=left_bc.kind,
        right_kind=right_bc.kind,
    )


def heat_interface_flux(
    field: SpaceTimeField,
    side: str,
    nu: float,
    source=None,
) -> InterfaceTrace:
    """Recover the +x-oriented boundary derivative history of a heat solve.

    Requires a boundary where the solution value was imposed (Dirichlet;
    Robin also works since the extraction only uses the PDE at the node).
    Raises :class:`WrongBoundaryKind` at a Neumann boundary, where the
    derivative was the input. The t=0 sample uses a forward time
    difference; no implicit step ever consumes it.
    """
    if field.is_2d:
        raise ValueError("heat_interface_flux expects a 1D field")
    steps = np.diff(field.tgrid.times)

    def dudt(ub: np.ndarray, j: int) -> np.ndarray:
        backward = (ub[1:] - ub[:-1]) / steps
        return np.concatenate((backward[:1], backward))  # forward at t=0

    return half_cell_flux(field, side, dudt, nu, source)
