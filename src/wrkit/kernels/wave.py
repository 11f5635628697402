"""Explicit second-order wave solver on one subdomain or strip, plus flux extraction.

Discretization: the three-level central scheme

    u^{n+1} = 2 u^n - u^{n-1} + (c dt)^2 L u^n + dt^2 f^n,

started with a Taylor step that uses the initial rate w0 = u_t(x, 0),

    u^1 = u^0 + dt w0 + (dt^2/2) (c^2 L u^0 + f^0),

where L is the second difference dxx on a 1D subdomain and the
five-point dxx + dyy on a 2D strip (x_left, x_right) x (y0, y1). One
march serves both: x is axis 0 of every nodal array and a strip's y
axis rides along, so the checks, the Neumann ghosts, the Dirichlet pins
and the field are stated once, and only the y neighbour sum and the y
lids are strip-only.

Each step is one update in coefficient form, written in place into the
new row,

    u^{n+1} = (alpha - 2 kx - 2 ky) u^n + kx (u[j-1] + u[j+1])
              + ky (u[k-1] + u[k+1]) - beta u^{n-1} + gamma f^n,

with kx = gamma c^2/dx^2 and ky = gamma c^2/dy^2 (0 in 1D). For the
step tau after tau_p, alpha = (tau + tau_p)/tau_p, beta = tau/tau_p and
gamma = tau (tau + tau_p)/2; the Taylor start has alpha = 1, gamma =
tau^2/2 and tau w0 in place of the u^{n-1} term. The coefficients are
formed once per distinct step. A step costs six array passes in 1D and
nine on a strip: per axis a neighbour sum and its scaling (and on a
strip its accumulation), then the u^n and u^{n-1} terms, each scaled
and accumulated.

The march may also carry a trailing batch axis: several solves with
the same x boundary kinds step together, each entry with its own
initial data, boundary data and lids, and with the same arithmetic as a
march of that entry alone. Entry 0 alone takes the source. The response
builds of ``wrkit.methods.workspace`` march a particular part and one
impulse per interface side as one batch; the two public solvers march
the same loop without the axis.

In 1D the speed may also be given per cell, which is how the
piecewise-speed monodomain reference marches: a node between cells of
speeds cl and cr takes the asymmetric row s (cl, -(cl + cr), cr) / dx^2
with s = 2 cl cr / (cl + cr), what continuity of u and of the
impedance-weighted slope c du/dx leaves after eliminating the one-sided
ghosts. That coupling is the one under which the glued multidomain fixed
point, whose solves exchange c du/dx as Neumann data, reproduces the
single-domain field node for node. The stencil writes it as cl cr dxx u
(kx per node) plus a correction at the jump nodes only, scaled by gamma.

Time grids may have unequal steps (a clipped final step, for example);
the variable-step coefficients above then replace the second time
difference with its variable-step counterpart, and they reduce to the
uniform scheme (alpha = 2, beta = 1, gamma = dt^2) when the steps are
equal. Stability requires the Courant number c dt/dx <= 1, or
c dt sqrt(1/dx^2 + 1/dy^2) <= 1 on a strip (checked against the
largest step and speed); in 1D at exactly 1 the scheme transports
along characteristics without dispersion.

Boundary handling: Dirichlet x boundaries are pinned, and a Neumann x
boundary eliminates a mirror ghost node using the +x oriented derivative
data: its x neighbour sum is 2 u[1] - 2 dx g at the left end and
2 u[-2] + 2 dx g at the right (applied also inside the Taylor step, so
the start is as accurate as the march); on a strip the traces carry one
sample column per y node. A strip's y boundaries always carry physical
Dirichlet data, pinned last so that they own the corner nodes. Robin
data raises :class:`WrongBoundaryKind`: its only producer is Robin
Schwarz, which diverges on waves and is rejected for them (see
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
from .common import check_bc, half_cell_flux
from .problems import SpaceTimeField

__all__ = ["solve_wave_subdomain", "solve_wave_strip_2d", "wave_interface_flux"]


class _Stencil:
    """The explicit update on a subdomain (``ygrid`` None) or a strip, for fixed x boundary kinds.

    ``c`` is one speed, or in 1D without a batch axis one speed per
    cell, whose jump nodes get a correction term (see ``__init__``).
    :meth:`update` writes one leapfrog row, :meth:`pin` its boundary
    data, and :meth:`step` is both on a new row. x is axis 0 of every
    nodal array; a strip's y axis rides along as axis 1, and a trailing
    batch axis (solves, or rows) may ride along too, the boundary data
    and lids then holding one value per batch entry and the source going
    to entry 0 alone. Only the y neighbour sum and the lid pins depend
    on whether it is a strip.
    """

    def __init__(
        self, xgrid: SpaceGrid1D, ygrid: SpaceGrid1D | None, c, left_kind, right_kind, source=None
    ):
        self.dx = xgrid.dx
        self.dy = None if ygrid is None else ygrid.dx
        self.left_neumann = left_kind is TraceKind.NEUMANN
        self.right_neumann = right_kind is TraceKind.NEUMANN
        # The rows the update writes: all but the Dirichlet x ends, which pin owns.
        nx = xgrid.n_cells
        self.rows = slice(0 if self.left_neumann else 1, nx + 1 if self.right_neumann else nx)
        self.jumps = []
        if np.ndim(c) == 0:
            self.c2 = c**2
        else:
            # One speed per cell (1D, no batch): a node between speeds cl and
            # cr takes cl cr dxx u + cl cr (cr - cl)/(cl + cr) (u[j+1] - u[j-1])/dx^2,
            # the module docstring's asymmetric row; an end node its cell's c^2.
            cl, cr = c[:-1], c[1:]
            self.c2 = np.concatenate(([c[0] ** 2], cl * cr, [c[-1] ** 2]))[self.rows]
            self.jumps = [
                (j + 1, cl[j] * cr[j] * (cr[j] - cl[j]) / (cl[j] + cr[j]) / self.dx**2)
                for j in np.flatnonzero(cl != cr)
            ]
        self.source = source
        x = xgrid.nodes[self.rows]
        if ygrid is None:
            self.coords = (x,)
        else:
            self.coords = (x[:, None], ygrid.nodes[None, :])
            # The y neighbour sums run over the rows' nodes in C order, but
            # for the strip's first and last node (corners, which the lids own).
            ny1 = ygrid.n_nodes
            start, stop = self.rows.start * ny1, self.rows.stop * ny1
            self.flat_rows = slice(max(start, 1), min(stop, (nx + 1) * ny1 - 1))
        self._coefficients = {}
        self._tmp = None

    def coefficients(self, tau: float, tau_prev: float | None) -> tuple:
        """(diag, kx, ky, weight, gamma, jumps) of the step ``tau`` after ``tau_prev``, formed once each.

        The module docstring states them; weight is -beta, or tau at the
        Taylor start (``tau_prev`` None), and the jump corrections carry gamma.
        """
        key = (tau, tau_prev)
        if key not in self._coefficients:
            if tau_prev is None:
                alpha, weight, gamma = 1.0, tau, 0.5 * tau**2
            else:
                alpha, weight, gamma = (tau + tau_prev) / tau_prev, -tau / tau_prev, 0.5 * tau * (tau + tau_prev)
            kx = gamma * self.c2 / self.dx**2
            ky = 0.0 if self.dy is None else gamma * self.c2 / self.dy**2
            jumps = [(j, gamma * k) for j, k in self.jumps]
            self._coefficients[key] = (alpha - 2.0 * kx - 2.0 * ky, kx, ky, weight, gamma, jumps)
        return self._coefficients[key]

    def update(self, out, cur, other, tau, tau_prev, g_left, g_right, t=None) -> None:
        """Write u^{n+1} into the rows of ``out`` that boundary data does not own.

        ``other`` is u^{n-1}, or the initial rate at the Taylor start
        (``tau_prev`` None), and ``g_*`` feed the Neumann ghosts. ``out``
        is C-contiguous; ``cur`` and ``other`` may be any views.
        """
        diag, kx, ky, weight, gamma, jumps = self.coefficients(tau, tau_prev)
        rows = self.rows
        new = out[rows]
        np.add(cur[:-2], cur[2:], out=out[1:-1])
        if self.left_neumann:
            out[0] = 2.0 * cur[1] - 2.0 * self.dx * g_left
        if self.right_neumann:
            out[-1] = 2.0 * cur[-2] + 2.0 * self.dx * g_right
        new *= kx
        if self._tmp is None or self._tmp.shape != out.shape:
            self._tmp = np.empty(out.shape)
        tmp = self._tmp
        if self.dy is not None:
            # y neighbours are one y stride apart in the flat C-ordered arrays:
            # contiguous slices, not strided views. The sums that wrap across x
            # rows land on lid nodes, which pin overwrites.
            stride = cur[0, 0].size
            flat, r = cur.reshape(-1, stride), self.flat_rows  # a copy where cur's axes do not merge
            part = tmp.reshape(-1, stride)[r]
            np.add(flat[r.start - 1 : r.stop - 1], flat[r.start + 1 : r.stop + 1], out=part)
            part *= ky
            out.reshape(-1, stride)[r] += part
        part = tmp[rows]
        np.multiply(cur[rows], diag, out=part)
        new += part
        np.multiply(other[rows], weight, out=part)
        new += part
        for j, k in jumps:
            out[j] += k * (cur[j + 1] - cur[j - 1])
        if self.source is not None:
            entry0 = new if new.ndim == len(self.coords) else new[..., 0]
            entry0 += gamma * self.source(*self.coords, t)

    def pin(self, v: np.ndarray, g_left, g_right, bottom=0.0, top=0.0) -> None:
        """Overwrite the Dirichlet x ends with ``g_*``, then a strip's lids (they own the corners)."""
        if not self.left_neumann:
            v[0] = g_left
        if not self.right_neumann:
            v[-1] = g_right
        if self.dy is not None:
            v[:, 0] = bottom
            v[:, -1] = top

    def step(self, cur: np.ndarray, prev: np.ndarray, tau: float, tau_prev: float, g_left, g_right):
        """One leapfrog update without source or lid data, on a new row: u^{n+1} from u^n and u^{n-1}.

        ``g_*`` is the data each x end reads in this step: row n at a
        Neumann end (its ghost), row n+1 at a Dirichlet end (its pin).
        """
        new = np.empty(cur.shape)
        self.update(new, cur, prev, tau, tau_prev, g_left, g_right)
        self.pin(new, g_left, g_right)
        return new


def _march(
    xgrid: SpaceGrid1D,
    ygrid: SpaceGrid1D | None,
    c,
    tgrid: TimeGrid,
    initial_u: np.ndarray,
    initial_ut: np.ndarray,
    left_bc: InterfaceTrace,
    right_bc: InterfaceTrace,
    g_left: np.ndarray,
    g_right: np.ndarray,
    lids,
    source,
) -> np.ndarray:
    """The explicit wave march on a subdomain (``ygrid`` None) or a strip.

    ``left_bc``/``right_bc`` give the x boundary kinds of every entry;
    their data are ``g_left``/``g_right``, ``(M+1,)`` or ``(M+1, ny+1)``
    plus the batch axis if there is one. ``initial_u``/``initial_ut``
    are nodal arrays, with the batch axis last if there is one, and a
    strip's ``lids`` are the bottom and top histories ``(M+1, nx+1)``
    plus the batch axis (None in 1D). ``c`` is one speed, or in 1D
    without a batch axis one per cell (the piecewise-speed reference).
    Checks the kinds, the smallest speed, the cell counts, the Courant
    number of the largest speed and the shapes, then marches
    :class:`_Stencil`, one update and one pin per row; returns the values,
    ``(M+1,) + nodal shape + batch``.
    """
    if TraceKind.ROBIN in (left_bc.kind, right_bc.kind):
        raise WrongBoundaryKind("the wave kernel takes Dirichlet or Neumann data, not Robin")
    if np.min(c) <= 0:
        raise ValueError("wave speed must be positive")
    nx = xgrid.n_cells
    ny = None if ygrid is None else ygrid.n_cells
    if nx < 2 or (ny is not None and ny < 2):
        raise ValueError("a subdomain needs at least 2 cells in each direction")
    dy = None if ygrid is None else ygrid.dx
    times = tgrid.times
    m = len(times)

    courant = cfl_number(float(np.max(c)), xgrid.dx, tgrid.max_step, dy)
    if courant > 1.0 + CFL_SLACK:
        raise CflViolation(f"Courant number {courant!r} exceeds 1")

    shape = (nx + 1,) if ygrid is None else (nx + 1, ny + 1)
    batch = initial_u.shape[len(shape) :]  # () or (entries,)
    if initial_u.shape != shape + batch or initial_ut.shape != shape + batch or len(batch) > 1:
        raise ValueError(f"initial data must be nodal {shape} arrays")
    if ygrid is None:
        bottom = top = np.zeros(m)  # never read: 1D has no lids
    else:
        bottom, top = lids
        if bottom.shape != (m, nx + 1) + batch or top.shape != (m, nx + 1) + batch:
            raise ValueError("bottom/top data must be (M+1, nx+1) histories")

    stencil = _Stencil(xgrid, ygrid, c, left_bc.kind, right_bc.kind, source)
    u = np.empty((m,) + initial_u.shape)
    u[0] = initial_u
    steps = tgrid.steps.tolist()
    for n in range(m - 1):
        other, tau_prev = (u[n - 1], steps[n - 1]) if n else (initial_ut, None)
        stencil.update(u[n + 1], u[n], other, steps[n], tau_prev, g_left[n], g_right[n], times[n])
        stencil.pin(u[n + 1], g_left[n + 1], g_right[n + 1], bottom[n + 1], top[n + 1])
    return u


def _solve(xgrid, ygrid, c, tgrid, initial_u, initial_ut, left_bc, right_bc, lids, source):
    """One solve, without a batch axis: what both public solvers do."""
    ny = None if ygrid is None else ygrid.n_cells
    check_bc(left_bc, tgrid, "left", ny)
    check_bc(right_bc, tgrid, "right", ny)
    u0, v0, *lids = (np.asarray(a, dtype=float) for a in (initial_u, initial_ut, *(lids or ())))
    g_left, g_right, lids = left_bc.samples, right_bc.samples, lids or None
    u = _march(xgrid, ygrid, c, tgrid, u0, v0, left_bc, right_bc, g_left, g_right, lids, source)
    return SpaceTimeField(
        xgrid=xgrid,
        tgrid=tgrid,
        values=u,
        left_kind=left_bc.kind,
        right_kind=right_bc.kind,
        ygrid=ygrid,
        initial_rate=v0,
    )


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
    return _solve(grid, None, c, tgrid, initial_u, initial_ut, left_bc, right_bc, None, source)


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

    ``initial_u``/``initial_ut`` are nodal arrays (nx+1, ny+1), the
    traces have one column per y node, and ``bottom``/``top`` are
    pre-sampled physical Dirichlet histories of shape (M+1, nx+1) on the
    y boundaries. Raises :class:`WrongBoundaryKind` for Robin boundary
    data.
    """
    return _solve(
        xgrid, ygrid, c, tgrid, initial_u, initial_ut, left_bc, right_bc, (bottom, top), source
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
) -> np.ndarray:
    """The +x-oriented boundary derivative history of a wave solve.

    Works for 1D fields, ``(M+1,)``, and 2D strip fields, ``(M+1, ny+1)``
    (the half-cell correction then includes the y part of the Laplacian;
    strip corner columns, which belong to the physical boundary, are
    reported as zero). A batched field gives the batch axis last and
    takes no source. Raises :class:`WrongBoundaryKind` at a Neumann
    boundary.
    """
    times = field.tgrid.times

    def dtt(ub: np.ndarray, j: int) -> np.ndarray:
        if field.initial_rate is None:
            raise ValueError("wave flux extraction needs the field's initial rate")
        return second_time_difference(ub, times, field.initial_rate[j])

    return half_cell_flux(field, side, dtt, c**2, source)
