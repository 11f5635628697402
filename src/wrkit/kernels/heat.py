"""Backward-Euler heat solver on one subdomain, plus flux extraction.

Discretization: implicit first-order time stepping with the standard
three-point second difference,

    (u^{n+1} - u^n)/dt = nu * dxx u^{n+1} + f^{n+1},

so each step solves a tridiagonal system with r = nu dt/dx^2 on the
diagonal pattern (-r, 1+2r, -r). Boundary conditions:

* Dirichlet: the node is pinned; its coupling moves to the right-hand
  side, and its own row is 1 on the diagonal with no coupling.
* Neumann (given w = u_x in +x orientation): a mirror ghost node
  eliminates the derivative, u_ghost = u_in -/+ 2 dx w (left/right), and
  the boundary row becomes (1+2r) u_b - 2r u_in = rhs -/+ 2 r dx w.
* Robin (given rho = (d/dn + p) u, outward normal): same ghost trick,
  adding 2 dx r p to the boundary diagonal and 2 r dx rho to the rhs.

Neumann/Robin rows are scaled by 1/2, which symmetrizes the matrix; it
is then a positive-definite tridiagonal for every r > 0 (and p > 0).

One march steps many solves on one time grid as one block-diagonal
system (:func:`_march`). A :class:`_Block` is one subdomain's solves
with the same boundary kinds: its initial data and boundary data may
carry a trailing batch axis, and the source goes to entry 0 alone.
Every entry of every block is one diagonal block, all of its grid's
nodes in a row, and the couplings between entries are exact zeros.
LAPACK's ``dpttrf`` factors the whole matrix as L D L^T once per step
size of the grid, and each step is one ``dpttrs`` call on one
contiguous row, solved in place. The row scale and the boundary terms
of every step are computed before the loop, and the pinned Dirichlet
nodes, whose rows carry their initial value along, take their data
after it. The finished fields, views of one array, are checked for
infs and NaNs once.

A zero coupling keeps every entry's bits: ``dpttrf`` forms e/d and
d' - e (e/d), which are 0 and d' when e is 0, and ``dpttrs`` forms
b' - b e and b/d - b' e, which are b' and b/d; a march of each entry
alone gives the same numbers (a signed zero aside). The response builds
of ``wrkit.methods.workspace`` march all of a run's heat keys on one
time grid as one block march, through ``workspace._heat_march``, the
one name that a span around the heat build can wrap. The public solve,
an equal subdomain's particular part and the monodomain reference are
blocks of one. A batch therefore costs what the same number of rows
costs unbatched: in ``tools/bench.py`` on a 2-vCPU Xeon, a step on 201
nodes takes 4.0-5.2 us without a batch and 9.8-11.1 us with three
entries, and the nine-subdomain heat chain of the benchmark (17 entries
of 51 nodes) steps in 13.5-14.4 us.

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

from itertools import accumulate
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from ..errors import NonFiniteTrace, SingularSystem
from ..grids import UNIFORM_RTOL, InterfaceTrace, SpaceGrid1D, TimeGrid, TraceKind
from .common import check_bc, half_cell_flux
from .problems import SpaceTimeField

__all__ = ["solve_heat_subdomain", "heat_interface_flux"]


class _Block(NamedTuple):
    """One subdomain's march in a block march: boundary kinds, data and source.

    ``initial`` is ``(nx+1,)`` or ``(nx+1, batch)``; ``g_left`` and
    ``g_right`` hold the boundary data of every row, ``(M+1,)`` or
    ``(M+1, batch)`` (row 0 is not read). The source ``f(x, t)`` goes to
    entry 0 alone.
    """

    grid: SpaceGrid1D
    nu: float
    initial: np.ndarray
    left_bc: InterfaceTrace
    right_bc: InterfaceTrace
    g_left: np.ndarray
    g_right: np.ndarray
    source: object = None


class _Part:
    """One block's place in a block march: its rows, their scale, its matrix and end terms.

    Each entry takes every node of the block's grid. A pinned Dirichlet
    node is a row of its own, diagonal 1 and no coupling, that carries
    its value along until the march writes the data in.
    """

    def __init__(self, block: _Block):
        grid, initial = block.grid, block.initial
        if block.nu <= 0:
            raise ValueError("nu must be positive")
        if grid.n_cells < 2:
            raise ValueError("a subdomain needs at least 2 cells")
        if initial.shape[:1] != (grid.n_nodes,) or initial.ndim > 2:
            raise ValueError("initial data must have one value per node")
        self.block = block
        self.entries = 1 if initial.ndim == 1 else initial.shape[1]
        self.size = grid.n_nodes
        self.left_open = block.left_bc.kind is not TraceKind.DIRICHLET
        self.right_open = block.right_bc.kind is not TraceKind.DIRICHLET
        self.lo = 0 if self.left_open else 1
        self.hi = grid.n_cells if self.right_open else grid.n_cells - 1
        self.x = grid.nodes[self.lo : self.hi + 1]
        # Neumann and Robin rows are halved, which keeps the matrix symmetric.
        self.scale = np.ones(self.size)
        self.scale[[0, -1]] = (0.5 if self.left_open else 1.0, 0.5 if self.right_open else 1.0)

    def r(self, dt):
        return self.block.nu * dt / self.block.grid.dx**2

    def matrix(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of every entry at step ``dt``, a zero coupling after each.

        The unknowns' rows are (-r, 1 + 2r, -r); a Robin end adds
        2 dx r p to its diagonal, and a Neumann or Robin end row is halved.
        """
        b, lo, hi, r = self.block, self.lo, self.hi, self.r(dt)
        d = np.ones(self.size)
        e = np.zeros(self.size)
        d[lo : hi + 1] = 1.0 + 2.0 * r
        e[lo:hi] = -r
        for at, bc, is_open in ((0, b.left_bc, self.left_open), (-1, b.right_bc, self.right_open)):
            if is_open:
                if bc.kind is TraceKind.ROBIN:
                    d[at] += 2.0 * b.grid.dx * r * bc.robin_p
                d[at] *= 0.5
        return np.tile(d, self.entries), np.tile(e, self.entries)

    def ends(self, dts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What each step adds to the first and last unknown of each entry, ``(M, entries)``."""
        b = self.block
        r = self.r(dts)[:, None]
        m = len(dts)
        left = self._end(b.left_bc, r, b.g_left[1:].reshape(m, -1), b.left_bc.kind is TraceKind.NEUMANN)
        right = self._end(b.right_bc, r, b.g_right[1:].reshape(m, -1), False)
        return left, right

    def _end(self, bc: InterfaceTrace, r: np.ndarray, g: np.ndarray, negate: bool) -> np.ndarray:
        """r g at a Dirichlet end; at a Neumann or Robin end the ghost term
        2 r dx g, negated at a left Neumann end, halved as the row is."""
        if bc.kind is TraceKind.DIRICHLET:
            return r * g
        term = 2.0 * r * self.block.grid.dx * g
        return 0.5 * (-term if negate else term)


@np.errstate(all="ignore")
def _march(tgrid: TimeGrid, blocks: list[_Block]) -> list[np.ndarray]:
    """March every block across the window as one system: ``(M+1, nx+1)`` or ``(M+1, nx+1, batch)`` each.

    Each entry of each block is one diagonal block of the system, in
    block order, with a zero coupling to the next; every step is one
    ``dpttrs`` call on the factor of its step size. The fields are views
    of one array. Raises :class:`~wrkit.errors.NonFiniteTrace` (a
    ``ValueError``) if they are not finite; that error, not numpy's
    overflow warnings, reports a march that overflowed.
    """
    parts = [_Part(block) for block in blocks]
    times = tgrid.times
    # The float steps of a uniform grid take several values. In sorted
    # order, a step within UNIFORM_RTOL * T of the shortest step of the
    # group before it joins that group and takes its value.
    steps, which = np.unique(np.diff(times), return_inverse=True)
    values, group = [], []
    for step in steps.tolist():
        if not values or step - values[-1] > UNIFORM_RTOL * times[-1]:
            values.append(step)
        group.append(len(values) - 1)
    which = np.array(group)[which]
    dts = np.array(values)[which]

    # The entries side by side, entries-major within each block.
    offsets = list(accumulate((p.size * p.entries for p in parts), initial=0))
    u = np.empty((len(times), offsets[-1]))
    u[0] = np.concatenate([p.block.initial.T.ravel() for p in parts])
    scale = np.concatenate([np.tile(p.scale, p.entries) for p in parts])
    left, right = (np.concatenate(a, axis=1) for a in zip(*(p.ends(dts) for p in parts)))
    starts = [o + p.size * j for o, p in zip(offsets, parts) for j in range(p.entries)]
    first = np.add(starts, [p.lo for p in parts for _ in range(p.entries)])
    last = np.add(starts, [p.hi for p in parts for _ in range(p.entries)])
    if len(starts) == 1:  # a lone entry adds scalars
        first, last, left, right = int(first[0]), int(last[0]), left[:, 0], right[:, 0]
    sources = [
        (slice(o + p.lo, o + p.hi + 1), p) for o, p in zip(offsets, parts) if p.block.source is not None
    ]

    factors = []
    for dt in values:
        d, e = (np.concatenate(a) for a in zip(*(p.matrix(dt) for p in parts)))
        d, e, info = dpttrf(d, e[:-1])
        if info != 0:  # a non-positive pivot: Robin data with p < 0, say
            raise SingularSystem(f"dpttrf failed with info = {info}")
        factors.append((d, e))
    for n, k in enumerate(which.tolist()):
        d, e = factors[k]
        b = u[n + 1]  # the right-hand side, solved in place
        np.multiply(u[n], scale, out=b)
        for at, p in sources:
            b[at] += (values[k] * p.scale[p.lo : p.hi + 1]) * p.block.source(p.x, times[n + 1])
        b[first] += left[n]
        b[last] += right[n]
        _, info = dpttrs(d, e, b, overwrite_b=1)
        if info != 0:
            raise SingularSystem(f"dpttrs failed with info = {info}")

    fields = []
    for o, p in zip(offsets, parts):
        field = u[:, o : o + p.size * p.entries].reshape(len(times), p.entries, p.size)
        field = np.moveaxis(field, 1, -1).reshape((len(times),) + p.block.initial.shape)
        if not p.left_open:
            field[1:, 0] = p.block.g_left[1:]
        if not p.right_open:
            field[1:, -1] = p.block.g_right[1:]
        fields.append(field)
    if not np.isfinite(u).all():
        raise NonFiniteTrace("heat march: array must not contain infs or NaNs")
    return fields


def _step(grid, nu, left_bc, right_bc, cur, dt, g_left, g_right) -> np.ndarray:
    """u^{n+1} from u^n and the boundary data at n+1, without source: a march of one step."""
    g_left, g_right = (np.broadcast_to(g, (2,) + np.shape(g)) for g in (g_left, g_right))
    block = _Block(grid, nu, cur, left_bc, right_bc, g_left, g_right)
    return _march(TimeGrid(np.array([0.0, dt])), [block])[0][1]


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
    (u,) = _march(tgrid, [_Block(grid, nu, u0, left_bc, right_bc, left_bc.samples, right_bc.samples, source)])
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
