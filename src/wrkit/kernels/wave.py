"""Explicit second-order wave solver on one subdomain or strip, plus flux extraction.

Discretization: the three-level central scheme

    u^{n+1} = 2 u^n - u^{n-1} + (c dt)^2 L u^n + dt^2 f^n,

started with a Taylor step that uses the initial rate w0 = u_t(x, 0),

    u^1 = u^0 + dt w0 + (dt^2/2) (c^2 L u^0 + f^0),

where L is the second difference dxx on a 1D subdomain and the
five-point dxx + dyy on a 2D strip (x_left, x_right) x (y0, y1). One
march serves both: x is axis 0 of every nodal array and a strip's y
axis rides along, so the checks, the Neumann ghosts, the Dirichlet pins
and the field are stated once, and only the y part of L and the y lids
are strip-only.

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
plus a correction at the jump nodes only.

Time grids may have unequal steps (a clipped final step, for example);
the march in :func:`.common.leapfrog` replaces the second time
difference with its variable-step counterpart and reduces exactly to
the above when the steps are uniform. Stability requires the Courant
number c dt/dx <= 1, or c dt sqrt(1/dx^2 + 1/dy^2) <= 1 on a strip
(checked against the largest step and speed); in 1D at exactly 1 the
scheme transports along characteristics without dispersion.

Boundary handling: Dirichlet x boundaries are pinned, and a Neumann x
boundary eliminates a mirror ghost node using the +x oriented derivative
data (applied also inside the Taylor step, so the start is as accurate
as the march); on a strip the traces carry one sample column per y node.
A strip's y boundaries always carry physical Dirichlet data, pinned last
so that they own the corner nodes. Robin data raises
:class:`WrongBoundaryKind`: its only producer is Robin Schwarz, which
diverges on waves and is rejected for them (see
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
from .common import _leapfrog_step, check_bc, half_cell_flux, leapfrog
from .problems import SpaceTimeField

__all__ = ["solve_wave_subdomain", "solve_wave_strip_2d", "wave_interface_flux"]


def _second_difference(v: np.ndarray, out: np.ndarray) -> None:
    """v[j-1] - 2 v[j] + v[j+1] along axis 0, for the interior j, written into ``out``."""
    np.multiply(v[1:-1], 2.0, out=out)
    np.subtract(v[:-2], out, out=out)
    out += v[2:]


class _Stencil:
    """The explicit update on a subdomain (``ygrid`` None) or a strip, for fixed x boundary kinds.

    ``c`` is one speed, or in 1D without a batch axis one speed per
    cell, whose jump nodes get a correction term (see ``__init__``).
    ``accel`` is its space part, ``pin`` writes the boundary data, and
    ``step`` is one whole leapfrog update. x is axis 0 of every nodal
    array; a strip's y axis rides along as axis 1, and a trailing batch
    axis (solves, or rows) may ride along too, the boundary data and lids
    then holding one value per batch entry and the source going to entry
    0 alone. Only the y Laplacian and the lid pins depend on whether it
    is a strip.
    """

    def __init__(
        self, xgrid: SpaceGrid1D, ygrid: SpaceGrid1D | None, c, left_kind, right_kind, source=None
    ):
        self.dx = xgrid.dx
        self.dy = None if ygrid is None else ygrid.dx
        self.jumps = []
        if np.ndim(c) == 0:
            self.c2 = c**2
        else:
            # One speed per cell (1D, no batch): a node between speeds cl and
            # cr takes cl cr dxx u + cl cr (cr - cl)/(cl + cr) (u[j+1] - u[j-1])/dx^2,
            # the module docstring's asymmetric row; an end node its cell's c^2.
            cl, cr = c[:-1], c[1:]
            self.c2 = np.concatenate(([c[0] ** 2], cl * cr, [c[-1] ** 2]))
            self.jumps = [
                (j + 1, cl[j] * cr[j] * (cr[j] - cl[j]) / (cl[j] + cr[j]) / self.dx**2)
                for j in np.flatnonzero(cl != cr)
            ]
        self.c2_over_dx2 = self.c2 / self.dx**2
        self.left_neumann = left_kind is TraceKind.NEUMANN
        self.right_neumann = right_kind is TraceKind.NEUMANN
        self.source = source
        if ygrid is None:
            self.coords = (xgrid.nodes,)
        else:
            self.coords = (xgrid.nodes[:, None], ygrid.nodes[None, :])

    def accel(self, v: np.ndarray, g_left, g_right, t=None) -> np.ndarray:
        """c^2 (dxx + dyy) v, plus f(t) in entry 0, at all nodes; ``g_*`` feed Neumann ghosts."""
        dx = self.dx
        # x part times dx^2, mirror ghosts next to Neumann ends; pinned rows are never read
        a = np.empty_like(v, order="C")
        _second_difference(v, a[1:-1])
        a[0] = 2.0 * (v[1] - v[0]) - 2.0 * dx * g_left if self.left_neumann else 0.0
        a[-1] = 2.0 * (v[-2] - v[-1]) + 2.0 * dx * g_right if self.right_neumann else 0.0
        if self.dy is None:
            a *= self.c2_over_dx2
            for j, k in self.jumps:
                a[j] += k * (v[j + 1] - v[j - 1])
        else:
            a /= dx**2
            # y neighbours are one y stride apart in the flat C-ordered arrays, so
            # the y part is a second difference along axis 0 of their (nodes,
            # stride) views: contiguous slices, not strided swapaxes views. The
            # entries that wrap across x rows are lid nodes, which pin overwrites.
            stride = v[0, 0].size
            flat = v.reshape(-1, stride)  # a copy where v's x and y axes do not merge
            lap_y = np.empty((len(flat) - 2, stride))
            _second_difference(flat, lap_y)
            lap_y /= self.dy**2
            a.reshape(-1, stride)[1:-1] += lap_y
            a *= self.c2
        if self.source is not None:
            entry0 = a if a.ndim == len(self.coords) else a[..., 0]
            entry0 += self.source(*self.coords, t)
        return a

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
        """One leapfrog update without source or lid data: u^{n+1} from u^n and u^{n-1}.

        ``g_*`` is the data each x end reads in this step: row n at a
        Neumann end (its ghost), row n+1 at a Dirichlet end (its pin).
        """
        new = np.empty_like(cur)
        _leapfrog_step(cur, prev, tau, tau_prev, self.accel(cur, g_left, g_right), new, np.empty_like(cur))
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
    :class:`_Stencil` with :func:`.common.leapfrog`; returns the values,
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
    leapfrog(
        u,
        times,
        initial_ut,
        lambda n: stencil.accel(u[n], g_left[n], g_right[n], times[n]),
        lambda n: stencil.pin(u[n], g_left[n], g_right[n], bottom[n], top[n]),
    )
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
