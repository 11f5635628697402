"""Spatial partitions, time grids, and interface traces.

The geometry is deliberately small: a 1D interval split into non-overlapping
subdomains whose interfaces must sit exactly on the finite-difference lattice,
plus per-subdomain time grids that may differ between subdomains (the
projection module moves trace data between them).

Conventions used throughout the package:

* Subdomains and interfaces are numbered 1-based in public APIs, matching
  the usual domain-decomposition notation: subdomain ``i`` spans
  ``(boundaries[i-1], boundaries[i])`` and interface ``i`` is the point
  shared by subdomains ``i`` and ``i+1``.
* Neumann trace samples always store the space derivative in the global
  +x orientation, regardless of which side of an interface they feed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IncompatibleGrids,
    NonDivisibleWindow,
    NonFiniteTrace,
    NonIncreasingBoundaries,
    TooFewSubdomains,
)

__all__ = [
    "TraceKind",
    "Partition1D",
    "TimeGrid",
    "SpaceGrid1D",
    "InterfaceTrace",
    "make_partition",
    "make_time_grid",
    "make_time_grid_clipped",
    "CFL_SLACK",
    "cfl_number",
    "grids_equal",
    "zero_trace",
]

#: Interfaces must land on lattice nodes to within this fraction of dx.
SNAP_RTOL = 1e-12

#: T/dt must be an integer to within this absolute slack.
DIVISIBILITY_ATOL = 1e-9

#: Slack on the Courant limit so exactly-1 setups are admitted.
CFL_SLACK = 1e-12

#: The steps of a uniform grid agree to within this fraction of T. The
#: steps of ``np.linspace`` differ by up to 1.6 eps (3,000 random grids).
UNIFORM_RTOL = 8 * np.finfo(float).eps


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class TraceKind(enum.Enum):
    """What quantity an interface trace carries."""

    DIRICHLET = "dirichlet"  # solution values u(x_i, t)
    NEUMANN = "neumann"  # +x-oriented derivative values u_x(x_i, t)
    ROBIN = "robin"  # outward combination (d/dn + p) u at the receiving side


@dataclass(frozen=True, eq=False)
class Partition1D:
    """Strictly increasing subdomain boundaries of a 1D interval.

    Derived quantities (widths, the narrowest width) are recomputed from
    the boundaries on every access so they can never go stale.
    """

    boundaries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "boundaries", _readonly(self.boundaries))

    @property
    def n_subdomains(self) -> int:
        return len(self.boundaries) - 1

    @property
    def n_interfaces(self) -> int:
        return self.n_subdomains - 1

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.boundaries[0]), float(self.boundaries[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @property
    def h_min(self) -> float:
        return float(self.widths.min())

    def bounds(self, i: int) -> tuple[float, float]:
        """Endpoints of subdomain ``i`` (1-based)."""
        if not 1 <= i <= self.n_subdomains:
            raise IndexError(f"subdomain index {i} outside 1..{self.n_subdomains}")
        return float(self.boundaries[i - 1]), float(self.boundaries[i])

    def interface_position(self, i: int) -> float:
        """Coordinate of interface ``i`` (1-based)."""
        if not 1 <= i <= self.n_interfaces:
            raise IndexError(f"interface index {i} outside 1..{self.n_interfaces}")
        return float(self.boundaries[i])


def make_partition(boundaries) -> Partition1D:
    """Build a partition from boundary coordinates, validating the shape."""
    arr = np.asarray(boundaries, dtype=float)
    if arr.ndim != 1 or len(arr) < 3:
        raise TooFewSubdomains(
            f"need at least 3 boundaries (2 subdomains), got {arr.tolist()}"
        )
    if not np.all(np.diff(arr) > 0):
        raise NonIncreasingBoundaries(
            f"boundaries must be strictly increasing, got {arr.tolist()}"
        )
    return Partition1D(arr)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Time nodes of one window ``[0, T]``.

    ``uniform`` is read off the times: the steps agree to within
    :data:`UNIFORM_RTOL` of ``T``. Every :func:`make_time_grid` grid is
    uniform; a :func:`make_time_grid_clipped` grid whose final step is
    shorter than the others is not. The subdomain solves of
    ``wrkit.methods`` take responses on both kinds: a clipped grid's
    uniform prefix is convolved and its last row is one more step.
    ``wrkit.methods`` rejects grids of any other shape.
    """

    times: np.ndarray
    uniform: bool = field(init=False)

    def __post_init__(self):
        arr = _readonly(self.times)
        if arr.ndim != 1 or len(arr) < 2:
            raise ValueError("a time grid needs at least two nodes")
        if arr[0] != 0.0:
            raise ValueError("time grids start at t=0")
        steps = np.diff(arr)
        if not np.all(steps > 0):
            raise ValueError("time nodes must be strictly increasing")
        object.__setattr__(self, "times", arr)
        object.__setattr__(self, "uniform", bool(np.ptp(steps) <= UNIFORM_RTOL * arr[-1]))

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def max_step(self) -> float:
        return float(self.steps.max())


def make_time_grid(T: float, dt: float) -> TimeGrid:
    """Uniform time grid on [0, T]; ``dt`` must divide ``T``.

    The number of steps is ``round(T/dt)``, accepted when ``T/dt`` is
    within ``1e-9`` of that integer; otherwise :class:`NonDivisibleWindow`.
    """
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    ratio = T / dt
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > DIVISIBILITY_ATOL:
        raise NonDivisibleWindow(f"dt={dt!r} does not divide T={T!r} (T/dt={ratio!r})")
    times = np.linspace(0.0, T, steps + 1)
    return TimeGrid(times)


def make_time_grid_clipped(T: float, dt: float) -> TimeGrid:
    """Time grid with uniform steps of ``dt`` and a shorter final step.

    When ``dt`` divides ``T`` this is exactly :func:`make_time_grid`;
    otherwise the last node is pulled back to ``T`` so the window is
    covered ``[0, dt, 2 dt, ..., m dt, T]``. Every run builds its
    per-subdomain time grids this way.
    """
    try:
        return make_time_grid(T, dt)
    except NonDivisibleWindow:
        pass
    full = math.floor(T / dt)
    times = np.empty(full + 2)
    times[: full + 1] = np.arange(full + 1) * dt
    times[-1] = T
    return TimeGrid(times)


def cfl_number(c: float, dx: float, dt: float, dy: float | None = None) -> float:
    """Courant number of the explicit wave step.

    1D: ``c dt / dx``. 2D (five-point cross stencil on a rectangle):
    ``c dt sqrt(1/dx^2 + 1/dy^2)``. Values above ``1 + CFL_SLACK`` are
    rejected as unstable; callers pass the largest step of a time grid.
    """
    if dy is None:
        return c * dt / dx
    return c * dt * math.sqrt(1.0 / dx**2 + 1.0 / dy**2)


@dataclass(frozen=True, eq=False)
class SpaceGrid1D:
    """Uniform nodes on one interval, endpoints included."""

    x_left: float
    x_right: float
    n_cells: int
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(self.nodes))

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @classmethod
    def with_cells(cls, a: float, b: float, n_cells: int) -> "SpaceGrid1D":
        if b <= a:
            raise ValueError("interval must have positive length")
        if n_cells < 1:
            raise ValueError("need at least one cell")
        return cls(float(a), float(b), int(n_cells), np.linspace(a, b, n_cells + 1))

    @classmethod
    def with_spacing(cls, a: float, b: float, dx: float) -> "SpaceGrid1D":
        """Grid with spacing ``dx``; ``dx`` must divide ``b - a`` exactly.

        "Exactly" means the rounded cell count reproduces the interval
        length to within ``SNAP_RTOL * dx``; anything else indicates the
        caller is trying to place an interface off the lattice.
        """
        if b <= a or dx <= 0:
            raise ValueError("need b > a and dx > 0")
        n = round((b - a) / dx)
        if n < 1 or abs((b - a) - n * dx) > SNAP_RTOL * dx:
            raise IncompatibleGrids(
                f"dx={dx!r} does not divide the interval ({a!r}, {b!r})"
            )
        return cls.with_cells(a, b, n)

    def node_index(self, x: float) -> int:
        """Index of the node at coordinate ``x`` (must lie on the lattice)."""
        j = round((x - self.x_left) / self.dx)
        if not 0 <= j <= self.n_cells or abs(self.nodes[j] - x) > SNAP_RTOL * self.dx:
            raise IncompatibleGrids(
                f"coordinate {x!r} is not a node of the grid on "
                f"({self.x_left!r}, {self.x_right!r}) with dx={self.dx!r}"
            )
        return j


def grids_equal(a: TimeGrid, b: TimeGrid) -> bool:
    """Whether two time grids have identical nodes."""
    if a is b:
        return True
    return a.times.shape == b.times.shape and bool(np.array_equal(a.times, b.times))


@dataclass(frozen=True, eq=False)
class InterfaceTrace:
    """Time history of one transmission quantity at one interface.

    ``samples`` has one row per time node: shape ``(M+1,)`` in 1D and
    ``(M+1, ny+1)`` for a 2D strip interface (one column per y node).
    Dirichlet traces carry solution values; Neumann traces carry the
    +x-oriented derivative; Robin traces carry ``(d/dn + p) u`` oriented
    outward with respect to the subdomain that will consume them, with the
    coefficient stored in ``robin_p``.
    """

    kind: TraceKind
    grid: TimeGrid
    samples: np.ndarray
    robin_p: float | None = None

    def __post_init__(self):
        arr = _readonly(self.samples)
        if arr.ndim not in (1, 2):
            raise ValueError("trace samples must be 1D or 2D")
        if arr.shape[0] != len(self.grid.times):
            raise IncompatibleGrids(
                f"trace has {arr.shape[0]} samples for a grid of "
                f"{len(self.grid.times)} time nodes"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteTrace("trace samples must be finite")
        if (self.kind is TraceKind.ROBIN) != (self.robin_p is not None):
            raise ValueError("robin_p is set exactly for Robin traces")
        object.__setattr__(self, "samples", arr)

    @property
    def is_2d(self) -> bool:
        return self.samples.ndim == 2

    def with_samples(self, samples) -> "InterfaceTrace":
        """The same kind, grid and Robin p with other samples, checked as any trace is."""
        return InterfaceTrace(self.kind, self.grid, samples, self.robin_p)


def zero_trace(
    grid: TimeGrid,
    kind: TraceKind = TraceKind.DIRICHLET,
    ny: int | None = None,
) -> InterfaceTrace:
    """All-zero trace on ``grid`` (2D when ``ny`` is given)."""
    m = len(grid.times)
    shape = (m,) if ny is None else (m, ny + 1)
    return InterfaceTrace(kind, grid, np.zeros(shape))
