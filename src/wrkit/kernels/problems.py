"""Problem statements and the space-time fields the solvers produce.

A :class:`SpaceTimeField` is one marched solve, or a batch of them along
a trailing axis: the flux functions read either, and the response builds
of ``wrkit.methods.workspace`` read their outputs off batched fields.

Data functions are plain elementwise callables so they vectorize over
numpy arrays: 1D boundary data takes ``t``, initial data takes ``x`` (and
``y`` in 2D, meshgrid-broadcast), sources take ``(x, t)`` or ``(x, y, t)``.
A ``None`` source means zero forcing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..grids import SpaceGrid1D, TimeGrid, TraceKind

__all__ = ["HeatProblem", "WaveProblem", "Wave2DProblem", "SpaceTimeField", "sample"]


def sample(fn: Callable, shape: tuple[int, ...], *args) -> np.ndarray:
    """Evaluate an elementwise data function and coerce to ``shape``.

    Data callables are written as plain expressions in their arguments;
    constants (e.g. ``lambda t: 0.0``) collapse shapes, so the result is
    broadcast back to the full nodal shape.
    """
    out = np.asarray(fn(*args), dtype=float)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


@dataclass(frozen=True)
class HeatProblem:
    """u_t = nu u_xx + f on an interval, Dirichlet data at both ends."""

    interval: tuple[float, float]
    nu: float
    initial: Callable
    boundary_left: Callable
    boundary_right: Callable
    source: Callable | None = None


@dataclass(frozen=True)
class WaveProblem:
    """u_tt = c^2 u_xx + f on an interval, Dirichlet data at both ends.

    ``speed`` is either one wave speed for the whole interval or one per
    subdomain (the per-subdomain form needs a partition wherever it is
    consumed, e.g. by the monodomain reference solve).
    """

    interval: tuple[float, float]
    speed: float | tuple[float, ...]
    initial_u: Callable
    initial_ut: Callable
    boundary_left: Callable
    boundary_right: Callable
    source: Callable | None = None


@dataclass(frozen=True)
class Wave2DProblem:
    """u_tt = c^2 (u_xx + u_yy) + f on the strip ``interval`` x ``y_interval``.

    Decomposition is along x only; boundary data is Dirichlet on all four
    sides. Side data functions are elementwise in ``(y, t)`` (left/right)
    or ``(x, t)`` (bottom/top).
    """

    interval: tuple[float, float]
    speed: float
    initial_u: Callable
    initial_ut: Callable
    boundary_left: Callable
    boundary_right: Callable
    boundary_bottom: Callable
    boundary_top: Callable
    source: Callable | None = None
    y_interval: tuple[float, float] = (0.0, math.pi)


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """One subdomain solve: nodal values over the whole time window.

    ``values`` is ``(M+1, nx+1)`` in 1D and ``(M+1, nx+1, ny+1)`` in 2D,
    row 0 being the initial condition exactly, plus an optional trailing
    batch axis of solves with the same boundary kinds (as the kernels'
    batched marches return them). ``left_kind``/``right_kind`` record
    how the x boundaries were imposed, which gates flux extraction (one
    cannot recover a derivative at a boundary where the derivative
    itself was the imposed data). ``initial_rate`` keeps the sampled u_t
    at t=0 for wave fields, with the batch axis if there is one; the
    flux extraction's t=0 stencil needs it.
    """

    xgrid: SpaceGrid1D
    tgrid: TimeGrid
    values: np.ndarray
    left_kind: TraceKind
    right_kind: TraceKind
    ygrid: SpaceGrid1D | None = None
    initial_rate: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expect_dims = 2 if self.ygrid is None else 3
        if vals.ndim not in (expect_dims, expect_dims + 1):
            raise ValueError(f"field values must be {expect_dims}-dimensional, plus a batch axis")
        if vals.shape[0] != len(self.tgrid.times) or vals.shape[1] != self.xgrid.n_nodes:
            raise ValueError("field shape does not match its grids")
        if self.ygrid is not None and vals.shape[2] != self.ygrid.n_nodes:
            raise ValueError("field y extent does not match the y grid")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.initial_rate is not None:
            rate = np.asarray(self.initial_rate, dtype=float)
            rate.setflags(write=False)
            object.__setattr__(self, "initial_rate", rate)

    @property
    def is_2d(self) -> bool:
        return self.ygrid is not None

    def boundary_index(self, side: str) -> int:
        """x node index of the left or right boundary."""
        if side == "left":
            return 0
        if side == "right":
            return self.xgrid.n_cells
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def boundary_kind(self, side: str) -> TraceKind:
        return self.left_kind if self.boundary_index(side) == 0 else self.right_kind
