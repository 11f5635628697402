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
is then a positive-definite tridiagonal for every r > 0 (and p > 0).
LAPACK's ``dpttrf`` factors it as L D L^T once per step size of the
grid, and each step is one ``dpttrs`` call on the cached factor. The row
scale and the boundary terms of every step are computed before the
loop, and the pinned Dirichlet columns, which no step reads, are written
after it. The finished field is checked for infs and NaNs once.

The march may carry a trailing batch axis: several right-hand sides
with the same boundary kinds step together, one ``dpttrs`` column each,
with the same arithmetic per column as a march of that column alone.
Entry 0 alone takes the source. The response builds of
``wrkit.methods.workspace`` march a particular part and one impulse per
interface side as one batch; :func:`solve_heat_subdomain` marches the
same loop without the axis. An axis turns the two end-row adds into
array operations and the solve into one on a Fortran-ordered copy: for
100 nodes on a 2-vCPU Xeon a step costs 2.9 us without the axis, 5.1 us
with one entry and 8.6 us with three (least of 15 marches of 500 steps),
so a march of one solve passes no axis: the public solve, an equal
subdomain's particular part, and the monodomain reference
(``wrkit.methods.workspace.solve_monodomain``).

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
from scipy.linalg.lapack import dpttrf, dpttrs

from ..errors import SingularSystem
from ..grids import UNIFORM_RTOL, InterfaceTrace, SpaceGrid1D, TimeGrid, TraceKind
from .common import check_bc, half_cell_flux
from .problems import SpaceTimeField

__all__ = ["solve_heat_subdomain", "heat_interface_flux"]


def _build_matrix(r: float, dx: float, n_unk: int, left_bc, right_bc, left_open: bool, right_open: bool):
    """Diagonal and off-diagonal of the symmetric tridiagonal matrix for one step size.

    ``left_open``/``right_open`` say whether the boundary node is an
    unknown (Neumann/Robin) rather than pinned (Dirichlet).
    """
    d = np.full(n_unk, 1.0 + 2.0 * r)
    e = np.full(n_unk - 1, -r)
    if left_open:
        diag = 1.0 + 2.0 * r
        if left_bc.kind is TraceKind.ROBIN:
            diag += 2.0 * dx * r * left_bc.robin_p
        d[0] = 0.5 * diag
    if right_open:
        diag = 1.0 + 2.0 * r
        if right_bc.kind is TraceKind.ROBIN:
            diag += 2.0 * dx * r * right_bc.robin_p
        d[-1] = 0.5 * diag
    return d, e


class _Steps:
    """Backward-Euler steps on one subdomain for fixed boundary kinds.

    Nodal arrays have x on axis 0; a trailing axis holds a batch of
    entries, which one multi-right-hand-side ``dpttrs`` call solves
    together. A march keys the cached factors on the grid's step sizes
    (a uniform grid factorizes once, a clipped one twice); :meth:`step`
    is a march of one step.
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
        # Neumann and Robin rows are halved, which keeps the matrix symmetric.
        self.scale = np.ones(self.hi - self.lo + 1)
        self.scale[0] = 0.5 if self.left_open else 1.0
        self.scale[-1] = 0.5 if self.right_open else 1.0
        self._factors: dict[float, tuple] = {}

    def _factor(self, dt: float) -> tuple:
        """The ``dpttrf`` factor (d, e) of the step-``dt`` matrix."""
        if dt not in self._factors:
            r = self.nu * dt / self.dx**2
            d, e = _build_matrix(
                r, self.dx, len(self.scale), self.left_bc, self.right_bc, self.left_open, self.right_open
            )
            d, e, info = dpttrf(d, e)
            if info != 0:  # a non-positive pivot: Robin data with p < 0, say
                raise SingularSystem(f"dpttrf failed with info = {info}")
            self._factors[dt] = (d, e)
        return self._factors[dt]

    def _end(self, bc: InterfaceTrace, r: np.ndarray, g: np.ndarray, negate: bool) -> np.ndarray:
        """What each step adds to an end row from the boundary data at its new time level.

        r g at a Dirichlet end; at a Neumann or Robin end the ghost term
        2 r dx g, negated at a left Neumann end, halved as the row is.
        """
        if bc.kind is TraceKind.DIRICHLET:
            return r * g
        term = 2.0 * r * self.dx * g
        return 0.5 * (-term if negate else term)

    def march(self, u: np.ndarray, times: np.ndarray, g_left, g_right, source=None) -> None:
        """Fill rows 1.. of ``u`` from row 0, one row per time in ``times``.

        ``g_*`` hold the boundary data of every row (row 0 is not read),
        with the batch axis of ``u`` if it has one; the source ``f(x, t)``
        goes to entry 0 alone.
        """
        lo, hi = self.lo, self.hi
        # The float steps of a uniform grid take several values. In sorted
        # order, a step within UNIFORM_RTOL * T of the shortest step of the
        # group before it joins that group and takes its value.
        values, which = np.unique(np.diff(times), return_inverse=True)
        for i in range(1, len(values)):
            if values[i] - values[i - 1] <= UNIFORM_RTOL * times[-1]:
                values[i] = values[i - 1]
        dts = values[which]
        batch = (1,) * (u.ndim - 2)
        r = (self.nu * dts / self.dx**2).reshape((-1,) + batch)
        left = self._end(self.left_bc, r, g_left[1:], self.left_bc.kind is TraceKind.NEUMANN)
        right = self._end(self.right_bc, r, g_right[1:], False)
        scale = self.scale.reshape(self.scale.shape + batch)

        rows = u[:, lo : hi + 1]
        factors = [self._factor(dt) for dt in values]
        for n, k in enumerate(which.tolist()):
            d, e = factors[k]
            b = rows[n + 1]  # the right-hand side, solved in place
            np.multiply(rows[n], scale, out=b)
            if source is not None:
                entry0 = b if b.ndim == 1 else b[:, 0]
                entry0 += (values[k] * self.scale) * source(self.x_unk, times[n + 1])
            b[0] += left[n]
            b[-1] += right[n]
            x, info = dpttrs(d, e, b, overwrite_b=1)
            if info != 0:
                raise SingularSystem(f"dpttrs failed with info = {info}")
            if x is not b:  # a batch is solved in a Fortran-ordered copy
                b[...] = x
        if not self.left_open:
            u[1:, 0] = g_left[1:]
        if not self.right_open:
            u[1:, -1] = g_right[1:]

    def step(self, cur: np.ndarray, dt: float, g_left, g_right) -> np.ndarray:
        """u^{n+1} from u^n and the boundary data at n+1, without source: a march of one step."""
        u = np.stack((cur, cur))
        g_left, g_right = (np.broadcast_to(g, (2,) + np.shape(g)) for g in (g_left, g_right))
        self.march(u, np.array([0.0, dt]), g_left, g_right)
        return u[1]


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

    u = np.empty((len(tgrid.times),) + initial.shape)
    u[0] = initial
    _Steps(grid, nu, left_bc, right_bc).march(u, tgrid.times, g_left, g_right, source)
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
) -> np.ndarray:
    """The +x-oriented boundary derivative history of a heat solve, ``(M+1,)``.

    Requires a boundary where the solution value was imposed (Dirichlet;
    Robin also works since the extraction only uses the PDE at the node).
    Raises :class:`WrongBoundaryKind` at a Neumann boundary, where the
    derivative was the input. The t=0 sample uses a forward time
    difference; no implicit step ever consumes it. A batched field gives
    ``(M+1, batch)`` and takes no source.
    """
    if field.is_2d:
        raise ValueError("heat_interface_flux expects a 1D field")
    steps = np.diff(field.tgrid.times).reshape((-1,) + (1,) * (field.values.ndim - 2))

    def dudt(ub: np.ndarray, j: int) -> np.ndarray:
        backward = (ub[1:] - ub[:-1]) / steps
        return np.concatenate((backward[:1], backward))  # forward at t=0

    return half_cell_flux(field, side, dudt, nu, source)
