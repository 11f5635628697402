"""Shared plumbing for the waveform-relaxation drivers.

This module owns everything the three drivers have in common: the
per-run grid bundle, the lattice rules a run applies (partition span,
snapped y grid), one solver adapter class per model (data sampling,
physical boundary data, solve, flux extraction, impedance) with the
impulse responses that replace the march on the iteration path,
projection-plan caching between per-subdomain time grids, reference
resolution and the trace distance that is the error metric,
normalization of initial guesses, the per-iteration monitor that
applies the stopping rule, and the driver loop into which each method
plugs its sweep. What one method carries between sweeps (the Schwarz
transmission pairs and their warm start, say) lives in that method's
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import IncompatibleGrids, NoReference, ValidationError
from ..grids import (
    InterfaceTrace,
    Partition1D,
    SpaceGrid1D,
    TimeGrid,
    TraceKind,
    grids_equal,
    make_time_grid_clipped,
    zero_trace,
)
from ..kernels import (
    HeatProblem,
    Wave2DProblem,
    WaveProblem,
    heat_interface_flux,
    sample,
    solve_heat_subdomain,
    solve_monodomain,
    solve_wave_strip_2d,
    solve_wave_subdomain,
    wave_interface_flux,
)
from ..kernels.common import check_bc, dirichlet_history, strip_data
from ..kernels.heat import _Steps as _HeatSteps
from ..kernels.wave import _Stencil as _WaveStencil
from ..kernels.problems import ColumnField, SpaceTimeField
from ..projection import build_plan, project_trace
from .config import IterationHistory, Method, WrConfig
from .schedule import arrangement_schedule, producer_map

__all__ = [
    "RunGrids",
    "make_run_grids",
    "guess_grids",
    "traces_from_field",
]

_INTERVAL_RTOL = 1e-12


@dataclass(frozen=True)
class RunGrids:
    """Discretization of one run: shared dx, per-subdomain time grids, dy in 2D.

    The lattice spacing is shared by all subdomains (interfaces must sit
    on lattice nodes); the time grids may differ between subdomains, in
    which case traces are re-sampled in time whenever they cross an
    interface.
    """

    dx: float
    tgrids: tuple[TimeGrid, ...]
    dy: float | None = None


def make_run_grids(
    partition: Partition1D,
    dx: float,
    T: float,
    dt,
    dy: float | None = None,
) -> RunGrids:
    """Build the grid bundle from a spacing, a window, and step sizes.

    ``dt`` is one step size for all subdomains or a sequence with one per
    subdomain. A step that does not divide ``T`` gets a shorter final
    step (:func:`~wrkit.grids.make_time_grid_clipped`); one that does
    gives the uniform grid.
    """
    if np.ndim(dt) == 0:
        tgrid = make_time_grid_clipped(T, float(dt))
        tgrids = (tgrid,) * partition.n_subdomains
    else:
        values = [float(v) for v in dt]
        if len(values) != partition.n_subdomains:
            raise ValidationError(
                f"need one dt per subdomain ({partition.n_subdomains}), got {len(values)}"
            )
        tgrids = tuple(make_time_grid_clipped(T, v) for v in values)
    return RunGrids(float(dx), tgrids, None if dy is None else float(dy))


def guess_grids(partition: Partition1D, grids: RunGrids, config: WrConfig) -> tuple[TimeGrid, ...]:
    """Per-interface time grids on which initial guesses must live.

    The Dirichlet-Neumann sweep keeps each interface trace on the time
    grid of the subdomain whose solve refreshes it; the symmetric methods
    (Neumann-Neumann, Schwarz) use the finer of the two neighbor grids.
    """
    n = partition.n_subdomains
    if config.method is Method.DNWR:
        producer = producer_map(arrangement_schedule(n, config.arrangement))
        return tuple(grids.tgrids[producer[i] - 1] for i in range(1, n))
    out = []
    for i in range(1, n):
        left, right = grids.tgrids[i - 1], grids.tgrids[i]
        out.append(left if left.n_steps >= right.n_steps else right)
    return tuple(out)


class _PlanCache:
    """Projection plans between the handful of time grids of one run."""

    def __init__(self):
        self._plans: dict[tuple[int, int], object] = {}

    def project(self, trace: InterfaceTrace, dst: TimeGrid) -> InterfaceTrace:
        if trace.grid is dst or grids_equal(trace.grid, dst):
            return trace
        key = (id(trace.grid), id(dst))
        plan = self._plans.get(key)
        if plan is None:
            # The plan holds references to both grids, so the ids in the
            # key cannot be recycled while the cache entry is alive.
            plan = build_plan(trace.grid, dst)
            self._plans[key] = plan
        return project_trace(trace, plan)


def trace_distance(traces, reference, cache: _PlanCache | None = None) -> tuple[float, ...]:
    """Max-abs distance of each trace to its reference trace, per interface.

    Each trace is projected onto its reference trace's time grid and
    compared over all nodes (time and, in 2D, y). This is the error the
    drivers monitor, the harness's initial error, and what
    ``interface_error`` re-measures. Raises :class:`IncompatibleGrids`
    when the counts differ, or a trace and its reference differ in
    dimensionality or shape.
    """
    if len(traces) != len(reference):
        raise IncompatibleGrids(
            f"need one reference trace per interface ({len(traces)}), got {len(reference)}"
        )
    cache = _PlanCache() if cache is None else cache
    out = []
    for tr, ref in zip(traces, reference):
        if tr.samples.ndim != ref.samples.ndim:
            raise IncompatibleGrids("trace and reference dimensionality differ")
        proj = cache.project(tr, ref.grid)
        if proj.samples.shape != ref.samples.shape:
            raise IncompatibleGrids("trace and reference sample shapes differ")
        out.append(float(np.max(np.abs(proj.samples - ref.samples))))
    return tuple(out)


def check_span(interval: tuple[float, float], partition: Partition1D) -> None:
    """Reject a partition whose ends are not the problem's x interval."""
    a, b = interval
    pa, pb = partition.interval
    scale = max(1.0, abs(a), abs(b))
    if abs(a - pa) > _INTERVAL_RTOL * scale or abs(b - pb) > _INTERVAL_RTOL * scale:
        raise ValidationError(
            f"partition interval ({pa!r}, {pb!r}) does not match the problem's ({a!r}, {b!r})"
        )


def snap_ygrid(y_interval: tuple[float, float], dy: float) -> SpaceGrid1D:
    """The shared y grid of a strip decomposition.

    The requested spacing is snapped to the nearest node count, so
    apparently non-divisible values (0.16 on a width-pi strip, say)
    resolve to the obvious lattice instead of raising.
    """
    y0, y1 = y_interval
    return SpaceGrid1D.with_cells(y0, y1, max(2, round((y1 - y0) / dy)))


class _Workspace:
    """Solver adapter for one subdomain, one subclass per model. Internal to the drivers.

    Subclasses sample their model's data on the subdomain grids and
    supply ``_march(left_bc, right_bc, homogeneous)``, one call of their
    kernel, and ``flux(field, side)``, the Schur-consistent +x derivative
    history at one boundary of a solve. ``homogeneous=True`` zeroes
    initial data, source, physical boundary data and 2D lid data, as the
    Neumann-Neumann correction stage needs. ``impedance`` weights the
    slope carried across an interface: the wave speed, or 1 for heat,
    whose diffusivity is shared. The static methods read the problem: x
    interval, speed per subdomain (None for heat), initial value
    function, and shared y grid (None in 1D).

    Every model's scheme is linear, and on uniform steps shift-invariant
    in time, so :meth:`solve` is its particular part (all data but the
    interface traces) plus a causal convolution of each interface trace
    with an impulse response. A clipped grid's shorter final step adds
    one last row, a fixed linear map of the rows before it:
    ``_last_step(left_bc, right_bc, cur, prev, g_left, g_right)`` is the
    kernel's own step, applied to a batch of rows. :class:`_Response`
    builds all of it from marches of the kernel and returns only the x
    columns the drivers read; :func:`build_workspaces` rejects any other
    time grid.
    """

    impedance = 1.0
    #: Boundary kinds whose data the kernel reads at row 0 as well.
    _row0_kinds: frozenset = frozenset()

    def __init__(self, problem, xgrid: SpaceGrid1D, tgrid: TimeGrid, ygrid, speed):
        self.problem = problem
        self.xgrid = xgrid
        self.tgrid = tgrid
        self.ygrid = ygrid
        if speed is not None:
            self.c = self.impedance = speed
        self.data = self._sample()
        self.columns: tuple[int, ...] | None = None
        self._responses: dict[tuple, _Response] = {}

    @staticmethod
    def interval(problem) -> tuple[float, float]:
        return problem.interval

    @staticmethod
    def make_ygrid(problem, grids: RunGrids) -> SpaceGrid1D | None:
        return None

    def _inputs(self, homogeneous: bool):
        """Sampled data arrays and the source, or zeros in their place."""
        if homogeneous:
            return [np.zeros_like(a) for a in self.data], None
        return self.data, self.problem.source

    def physical_trace(self, side: str, homogeneous: bool = False) -> InterfaceTrace:
        """The problem's Dirichlet data at a physical x boundary (zero if homogeneous)."""
        if homogeneous:
            ny = None if self.ygrid is None else self.ygrid.n_cells
            return zero_trace(self.tgrid, TraceKind.DIRICHLET, ny=ny)
        fn = (
            self.problem.boundary_left if side == "left" else self.problem.boundary_right
        )
        return dirichlet_history(fn, self.tgrid, self.ygrid)

    def dirichlet_trace(self, field, side: str) -> InterfaceTrace:
        """Solution history on one boundary of a solve, as a trace."""
        return InterfaceTrace(TraceKind.DIRICHLET, self.tgrid, field.boundary_values(side))

    def read_columns(self, xs) -> None:
        """Name the x coordinates whose columns the driver reads off every solve.

        Without this, a response solve keeps the boundary column and its
        neighbour on each interface side, which is what ``flux`` and
        ``dirichlet_trace`` read. Call it before the first solve.
        """
        self.columns = tuple(self.xgrid.node_index(x) for x in xs)

    def solve(self, left_bc, right_bc, homogeneous=False) -> ColumnField:
        """Solve the subdomain with interface data ``left_bc``/``right_bc``.

        A side at the end of the chain takes None and gets the problem's
        physical data (zero if homogeneous). Returns the
        :class:`ColumnField` of a response solve; the first solve for a
        set of side kinds builds the response.
        """
        inputs = {side: bc for side, bc in (("left", left_bc), ("right", right_bc)) if bc is not None}
        ny = None if self.ygrid is None else self.ygrid.n_cells
        for side, bc in inputs.items():
            check_bc(bc, self.tgrid, side, ny)
        key = (tuple((side, bc.kind, bc.robin_p) for side, bc in inputs.items()), homogeneous)
        response = self._responses.get(key)
        if response is None:
            response = self._responses[key] = _Response(self, inputs, homogeneous)
        return response.apply(self, inputs)

    def _boundaries(self, inputs: dict, homogeneous: bool) -> tuple[InterfaceTrace, InterfaceTrace]:
        """Left and right data of one march: ``inputs``, physical data on the other sides."""
        return tuple(
            inputs[side] if side in inputs else self.physical_trace(side, homogeneous)
            for side in ("left", "right")
        )

    # A 1D column is its own single mode; strips override these three.
    def _profile(self) -> float | np.ndarray:
        """The y profile of an impulse that excites every mode with unit weight."""
        return 1.0

    def _modes(self, samples: np.ndarray) -> np.ndarray:
        """Column history ``(M+1, ...)`` to mode histories ``(M+1, modes)``."""
        return samples[:, None]

    def _from_modes(self, base: np.ndarray, modes: np.ndarray) -> np.ndarray:
        """``base`` plus the column history that mode histories ``modes`` stand for."""
        return base + modes[:, 0]


class _Response:
    """One subdomain's solve for fixed interface-side kinds, as convolutions in time.

    Built from marches of the adapter's own kernel on its time grid:
    one particular march with zero interface data (none when
    homogeneous: it is exactly zero), and per interface side one march
    with a unit impulse at row 1 and zero data elsewhere. The response
    to an impulse at row m >= 1 is the row-1 response shifted by m - 1.
    Row 0 of an input is never read by the heat kernel or at a Dirichlet
    side, whose row 0 is the initial data. The wave kernels read it at a
    Neumann side, in the Taylor start, where its response is half the
    row-1 response shifted back one row; there the impulse goes in at
    row 0 and a row m >= 1 weighs twice its shifted response.

    A clipped grid ``[0, dt, ..., M dt, T]`` is shift-invariant over its
    uniform prefix only: rows 0..M of its march are the march on
    ``times[:M + 1]`` (bit for bit), so they are convolved as above. Row
    M + 1 is one more step of the kernel, linear in rows M - 1 and M and
    in the data the step reads (row M at a wave Neumann side, its ghost;
    row M + 1 elsewhere). At build time that step is applied to every
    consecutive row pair of each impulse march at once, which gives the
    weight of every input row in the last row (``last``); a solve then
    takes one dot product per kept column and side. The particular march
    runs over the whole grid, last row included.

    On strips the interface data are expanded in the sine modes of the
    interior y nodes, in which the scheme with zero lids decouples. An
    impulse whose profile holds every mode with unit weight gives every
    mode's response in one march. The corner rows of each column come
    from the particular part only; no interface data reaches them.

    Only the columns the drivers read are kept (``columns``). Time
    convolutions are products of ``numpy.fft`` real FFTs whose length is
    the power of two at or above 2 rows - 1, so nothing wraps into the
    convolved rows. (A length of 2 rows, which is 2 * 251 on
    ``fig_wave_T5``, doubled how far that preset's error rows moved from
    the march's.) ``scipy.fft`` is not used: importing it adds about
    3 MB to the peak resident memory of an import of the package.

    The convolutions set an error floor above the march's. Run past
    convergence (sweeps 10-15), ``fig_wave_T5``'s monitored error stays
    at 1.3e-12 to 4.4e-12, against 3.7e-14 to 5.5e-14 with every solve
    marched, so a ``tol`` under about 5e-12 on that chain may take more
    sweeps than the march did (3e-12 misses sweep 10, 1e-12 is never
    met). ``fig_wave_nonmatching`` (clipped grids) floors at 5.3e-13 to
    5.9e-13 marched or not, a floor the convolutions do not raise: its
    converged row moved by 3.5e-15 of its initial error, and every
    ``tol`` down to 1e-12 takes the march's sweep count.
    """

    def __init__(self, space: _Workspace, inputs: dict, homogeneous: bool):
        clipped = not space.tgrid.uniform
        self.rows = space.tgrid.n_steps + (0 if clipped else 1)
        self.length = 1 << (2 * self.rows - 2).bit_length()
        if space.columns is not None:
            self.columns = space.columns
        else:
            nx = space.xgrid.n_cells
            near = {"left": (0, 1), "right": (nx, nx - 1)}
            self.columns = tuple(j for side in inputs for j in near[side])
        zero = {side: bc.with_samples(np.zeros_like(bc.samples)) for side, bc in inputs.items()}

        self.kernels = {}
        for side, bc in inputs.items():
            first = 0 if bc.kind in space._row0_kinds else 1
            samples = np.zeros_like(bc.samples)
            samples[first] = space._profile()
            bcs = space._boundaries({**zero, side: bc.with_samples(samples)}, True)
            field = space._march(*bcs, True)
            responses = np.stack(
                [space._modes(field.column(j))[first : self.rows] for j in self.columns]
            )
            if first:  # row 0 is never read
                weights = np.ones(self.rows)
                weights[0] = 0.0
            else:  # row m >= 1 weighs twice the row-0 response shifted by m
                weights = np.full(self.rows, 2.0)
                weights[0] = 1.0
            last = self._last(space, bcs, side, field.values, first, weights) if clipped else None
            self.kernels[side] = (weights[:, None], np.fft.rfft(responses, n=self.length, axis=1), last)
        if homogeneous:
            self.particular = [np.zeros_like(field.column(j)) for j in self.columns]
        else:
            field = space._march(*space._boundaries(zero, False), False)
            self.particular = [np.array(field.column(j)) for j in self.columns]
        # Any march here has the solve's boundary kinds; a homogeneous one its zero rate.
        self.kinds = (field.left_kind, field.right_kind)
        self.initial_rate = field.initial_rate

    def _last(self, space: _Workspace, bcs, side: str, values: np.ndarray, first: int, weights):
        """Weights ``(columns, M + 2, modes)`` of each row of ``side``'s data in the last row.

        ``values`` is ``side``'s impulse march. Its step from rows i - 1
        and i with zero data is q[i]; an input row m reaches the last row
        through rows M - 1 and M of its shifted response, so it weighs
        ``weights[m] * q[M - m + first]``. A last batch entry steps zero
        rows with the impulse profile as the data the step reads: the
        weight of row M + first.
        """
        M = self.rows - 1
        zero = np.zeros_like(values[:1])
        cur = np.concatenate((values[: M + 1], zero))
        prev = np.concatenate((zero, values[:M], zero))
        data = np.zeros((M + 2,) + bcs[0].samples.shape[1:])
        data[-1] = space._profile()
        g = {s: data if s == side else np.zeros_like(data) for s in ("left", "right")}
        # The rows ride along as the last axis, 64 at a time to keep the step's temporaries small.
        batch = [np.moveaxis(a, 0, -1) for a in (cur, prev, g["left"], g["right"])]
        cols = list(self.columns)
        new = np.concatenate(
            [
                space._last_step(*bcs, *(a[..., s : s + 64] for a in batch))[cols]
                for s in range(0, M + 2, 64)
            ],
            axis=-1,
        )
        m = np.arange(first, M + 1)
        out = []
        for column in new:
            q = space._modes(np.moveaxis(column, -1, 0))
            last = np.zeros_like(q)
            last[m] = weights[m, None] * q[M + first - m]
            last[M + first] += q[-1]
            out.append(last)
        return np.stack(out)

    def apply(self, space: _Workspace, inputs: dict) -> ColumnField:
        """The kept columns of ``space``'s solve with interface data ``inputs``."""
        total = last_row = 0.0
        for side, (weights, kernel, last) in self.kernels.items():
            modes = space._modes(inputs[side].samples)
            total = total + kernel * np.fft.rfft(weights * modes[: self.rows], n=self.length, axis=0)
            if last is not None:
                last_row = last_row + np.einsum("cmk,mk->ck", last, modes)
        modes = np.fft.irfft(total, n=self.length, axis=1)[:, : self.rows]
        if not space.tgrid.uniform:
            modes = np.concatenate((modes, last_row[:, None]), axis=1)
        columns = {
            j: space._from_modes(base, mode)
            for j, base, mode in zip(self.columns, self.particular, modes)
        }
        return ColumnField(
            xgrid=space.xgrid,
            tgrid=space.tgrid,
            columns=columns,
            left_kind=self.kinds[0],
            right_kind=self.kinds[1],
            ygrid=space.ygrid,
            initial_rate=self.initial_rate,
        )


class _Heat1D(_Workspace):
    """u_t = nu u_xx + f on one subdomain."""

    @staticmethod
    def speeds(problem, n: int) -> list[float | None]:
        return [None] * n

    @staticmethod
    def initial_value(problem):
        return problem.initial

    def _sample(self) -> list[np.ndarray]:
        x = self.xgrid.nodes
        return [sample(self.problem.initial, x.shape, x)]

    def _march(self, left_bc, right_bc, homogeneous) -> SpaceTimeField:
        (u0,), source = self._inputs(homogeneous)
        return solve_heat_subdomain(
            self.xgrid, self.problem.nu, self.tgrid, u0, left_bc, right_bc, source
        )

    def _last_step(self, left_bc, right_bc, cur, prev, g_left, g_right) -> np.ndarray:
        out = np.empty_like(cur)
        steps = _HeatSteps(self.xgrid, self.problem.nu, left_bc, right_bc)
        steps.step(cur, out, self.tgrid.steps[-1], g_left, g_right)
        return out

    def flux(self, field, side: str) -> InterfaceTrace:
        return heat_interface_flux(field, side, self.problem.nu, self.problem.source)


class _Wave1D(_Workspace):
    """u_tt = c^2 u_xx + f on one subdomain, with that subdomain's speed."""

    # The Taylor start reads Neumann data at t=0 through the ghost node.
    _row0_kinds = frozenset({TraceKind.NEUMANN})

    @staticmethod
    def speeds(problem, n: int) -> list[float | None]:
        if np.ndim(problem.speed) == 0:
            return [float(problem.speed)] * n
        speeds = [float(c) for c in problem.speed]
        if len(speeds) != n:
            raise ValidationError(f"need one wave speed per subdomain ({n}), got {len(speeds)}")
        return speeds

    @staticmethod
    def initial_value(problem):
        return problem.initial_u

    def _sample(self) -> list[np.ndarray]:
        problem, x = self.problem, self.xgrid.nodes
        return [sample(problem.initial_u, x.shape, x), sample(problem.initial_ut, x.shape, x)]

    def _march(self, left_bc, right_bc, homogeneous) -> SpaceTimeField:
        (u0, v0), source = self._inputs(homogeneous)
        return solve_wave_subdomain(
            self.xgrid, self.c, self.tgrid, u0, v0, left_bc, right_bc, source
        )

    def _last_step(self, left_bc, right_bc, cur, prev, g_left, g_right) -> np.ndarray:
        tau_prev, tau = self.tgrid.steps[-2:]
        stencil = _WaveStencil(self.xgrid, self.ygrid, self.c, left_bc.kind, right_bc.kind)
        return stencil.step(cur, prev, tau, tau_prev, g_left, g_right)

    def flux(self, field, side: str) -> InterfaceTrace:
        return wave_interface_flux(field, side, self.c, self.problem.source)


class _Strip2D(_Wave1D):
    """u_tt = c^2 (u_xx + u_yy) + f on one strip, with pre-sampled lid data.

    Response solves work in the sine modes of the interior y nodes: the
    orthonormal DST-I matrix, which is its own inverse.
    """

    @staticmethod
    def interval(problem) -> tuple[float, float]:
        return problem.x_interval

    @staticmethod
    def make_ygrid(problem, grids: RunGrids) -> SpaceGrid1D:
        if grids.dy is None:
            raise ValidationError("2D strip runs need dy in RunGrids")
        return snap_ygrid(problem.y_interval, grids.dy)

    def _sample(self) -> list[np.ndarray]:
        return strip_data(self.problem, self.xgrid, self.ygrid, self.tgrid)

    @cached_property
    def _sine(self) -> np.ndarray:
        ny = self.ygrid.n_cells
        k = np.arange(1, ny)
        return np.sqrt(2.0 / ny) * np.sin(np.pi * np.outer(k, k) / ny)

    def _march(self, left_bc, right_bc, homogeneous) -> SpaceTimeField:
        (u0, v0, bottom, top), source = self._inputs(homogeneous)
        return solve_wave_strip_2d(
            self.xgrid, self.ygrid, self.c, self.tgrid, u0, v0, left_bc, right_bc, bottom, top, source
        )

    def _profile(self) -> np.ndarray:
        profile = np.zeros(self.ygrid.n_nodes)
        profile[1:-1] = self._sine.sum(axis=1)
        return profile

    def _modes(self, samples: np.ndarray) -> np.ndarray:
        return samples[:, 1:-1] @ self._sine

    def _from_modes(self, base: np.ndarray, modes: np.ndarray) -> np.ndarray:
        out = np.array(base)
        out[:, 1:-1] += modes @ self._sine
        return out


_ADAPTERS = {HeatProblem: _Heat1D, WaveProblem: _Wave1D, Wave2DProblem: _Strip2D}


def _adapter(problem) -> type[_Workspace]:
    """The workspace class of a problem's model."""
    model = _ADAPTERS.get(type(problem))
    if model is None:
        raise TypeError(f"unsupported problem type: {type(problem).__name__}")
    return model


def _solve_all(spaces: dict[int, _Workspace], inner, homogeneous: bool = False) -> dict:
    """Solve every subdomain once, independently of the others.

    ``inner(s, i)`` is the data subdomain ``s`` takes at interface ``i``;
    the two ends of the chain take the physical data (zero data in a
    homogeneous solve).
    """
    n = len(spaces)
    fields = {}
    for s, space in spaces.items():
        left = None if s == 1 else inner(s, s - 1)
        right = None if s == n else inner(s, s)
        fields[s] = space.solve(left, right, homogeneous)
    return fields


def exchange_scale(producer: _Workspace, consumer: _Workspace) -> float:
    """Neumann transmission factor between two subdomains.

    The quantity carried across an interface is the impedance-weighted
    slope c du/dx, so a consumer with its own speed imposes the
    producer's extracted slope times c_producer / c_consumer. Matching
    speeds (and the heat model, whose diffusivity is shared) scale by
    exactly one. With this weighting the fixed point is the piecewise
    monodomain scheme.

    Finite-step convergence across speed jumps survives discretization
    only where every subdomain marches at unit Courant number under the
    outward sweep: the three-speed chain of acceptance check 08 then
    drops by 3e-13 in three sweeps, and by 9.4e-2 with this factor
    forced to one. Elsewhere the sweep only contracts: three sweeps
    leave 0.98 of a white-noise error with one shared step of 0.04, and
    0.64 on the ``fig_wave_nonmatching`` grids.
    """
    cp, cc = producer.impedance, consumer.impedance
    return 1.0 if cp == cc else cp / cc


def build_workspaces(
    problem,
    partition: Partition1D,
    grids: RunGrids,
    bounds: dict[int, tuple[float, float]] | None = None,
) -> tuple[dict[int, _Workspace], SpaceGrid1D | None]:
    """One solver adapter per subdomain, plus the shared y grid (2D only).

    ``bounds`` optionally replaces every subdomain's interval; the
    overlapping Schwarz driver extends its subdomains this way. Each time
    grid must be uniform, or uniform steps followed by one shorter final
    step (what :func:`make_run_grids` builds): a response serves no other
    grid, so any other raises :class:`ValidationError`.
    """
    model = _adapter(problem)
    n = partition.n_subdomains
    if len(grids.tgrids) != n:
        raise ValidationError(f"need one time grid per subdomain ({n}), got {len(grids.tgrids)}")
    T0 = grids.tgrids[0].T
    for i, tg in enumerate(grids.tgrids, start=1):
        if abs(tg.T - T0) > 1e-12 * max(1.0, abs(T0)):
            raise ValidationError("all subdomains must cover the same time window")
        steps = tg.steps
        if not (tg.uniform or (TimeGrid(tg.times[:-1]).uniform and steps[-1] < steps[0])):
            raise ValidationError(
                f"time grid {i} is neither uniform nor uniform steps followed by one shorter "
                "final step, so a subdomain solve cannot be a response"
            )

    check_span(model.interval(problem), partition)

    ygrid = model.make_ygrid(problem, grids)
    speeds = model.speeds(problem, n)
    spaces: dict[int, _Workspace] = {}
    for i in range(1, n + 1):
        lo, hi = partition.bounds(i) if bounds is None else bounds[i]
        xgrid = SpaceGrid1D.with_spacing(lo, hi, grids.dx)
        spaces[i] = model(problem, xgrid, grids.tgrids[i - 1], ygrid, speeds[i - 1])
    return spaces, ygrid


def force_compatible(
    trace: InterfaceTrace,
    problem,
    x: float,
    ygrid: SpaceGrid1D | None,
) -> InterfaceTrace:
    """Overwrite the rows of a Dirichlet guess that the scheme determines.

    The t=0 sample of an interface trace must equal the initial condition
    there: solvers write row 0 of every field from the initial data, so a
    guess that disagrees at t=0 would leave a never-decaying error in the
    monitored history (and spoil finite-step convergence). In 2D the
    corner columns belong to the physical y boundaries for the same
    reason. Guesses that already satisfy both come back unchanged in
    value.
    """
    values = np.array(trace.samples, dtype=float)
    u0 = _adapter(problem).initial_value(problem)
    if trace.is_2d:
        y = ygrid.nodes
        t = trace.grid.times
        values[0, :] = sample(u0, y.shape, x, y)
        values[:, 0] = sample(problem.boundary_bottom, t.shape, x, t)
        values[:, -1] = sample(problem.boundary_top, t.shape, x, t)
    else:
        values[0] = float(np.asarray(u0(x), dtype=float))
    return trace.with_samples(values)


def normalize_guesses(
    problem,
    partition: Partition1D,
    init_guesses,
    target_grids: tuple[TimeGrid, ...],
    ygrid: SpaceGrid1D | None,
) -> list[InterfaceTrace]:
    """Validate one Dirichlet guess per interface and force compatibility."""
    guesses = list(init_guesses)
    if len(guesses) != partition.n_interfaces:
        raise ValidationError(
            f"need one initial guess per interface ({partition.n_interfaces}), got {len(guesses)}"
        )
    out = []
    for i, trace in enumerate(guesses, start=1):
        if not isinstance(trace, InterfaceTrace) or trace.kind is not TraceKind.DIRICHLET:
            raise ValidationError(f"initial guess {i} must be a Dirichlet interface trace")
        if not grids_equal(trace.grid, target_grids[i - 1]):
            raise IncompatibleGrids(f"initial guess {i} is not on its interface time grid")
        if trace.is_2d != (ygrid is not None) or (
            trace.is_2d and trace.samples.shape[1] != ygrid.n_nodes
        ):
            raise IncompatibleGrids(f"initial guess {i} does not match the y grid")
        out.append(force_compatible(trace, problem, partition.interface_position(i), ygrid))
    return out


def traces_from_field(
    field: SpaceTimeField,
    partition: Partition1D,
    target_grids: tuple[TimeGrid, ...] | None = None,
) -> tuple[InterfaceTrace, ...]:
    """Dirichlet interface histories of a full-domain field.

    Returns one trace per interface, re-sampled onto ``target_grids``
    when given. Used for warm starts, references, and the error metric.
    """
    out = []
    for i in range(1, partition.n_interfaces + 1):
        j = field.xgrid.node_index(partition.interface_position(i))
        trace = InterfaceTrace(TraceKind.DIRICHLET, field.tgrid, field.values[:, j])
        if target_grids is not None:
            trace = project_trace(trace, build_plan(field.tgrid, target_grids[i - 1]))
        out.append(trace)
    return tuple(out)


def reference_from_monodomain(
    problem,
    partition: Partition1D,
    grids: RunGrids,
    ygrid: SpaceGrid1D | None,
) -> tuple[InterfaceTrace, ...]:
    """Interface histories of the single-domain solve, on the finest time grid."""
    xgrid = SpaceGrid1D.with_spacing(*partition.interval, grids.dx)
    tgrid = max(grids.tgrids, key=lambda tg: tg.n_steps)
    field = solve_monodomain(problem, xgrid, tgrid, ygrid=ygrid, partition=partition)
    return traces_from_field(field, partition)


def resolve_reference(
    problem,
    partition: Partition1D,
    grids: RunGrids,
    reference,
    monitor_grids: tuple[TimeGrid, ...],
    ygrid: SpaceGrid1D | None,
) -> tuple[tuple[InterfaceTrace, ...] | None, str]:
    """Turn the ``reference`` argument of a driver into reference traces.

    ``"auto"`` solves the problem on the undecomposed domain and reads
    the interface histories off that field; ``"zero"`` compares against
    zero (error-equation runs, where all problem data vanishes and the
    interface traces themselves are the error); an explicit sequence
    supplies one trace per interface (another count raises
    :class:`IncompatibleGrids`, as :func:`trace_distance` does); ``None``
    means no reference, and the drivers monitor the size of each update
    instead.
    """
    if reference is None:
        return None, "update_drop"
    if isinstance(reference, str):
        if reference == "zero":
            ny = None if ygrid is None else ygrid.n_cells
            ref = tuple(zero_trace(g, TraceKind.DIRICHLET, ny=ny) for g in monitor_grids)
            return ref, "reference"
        if reference == "auto":
            return reference_from_monodomain(problem, partition, grids, ygrid), "reference"
        raise NoReference(
            f"no reference called {reference!r}: use 'auto', 'zero', explicit traces, or None"
        )
    ref = tuple(reference)
    if len(ref) != partition.n_interfaces:
        raise IncompatibleGrids(
            f"need one reference trace per interface ({partition.n_interfaces}), got {len(ref)}"
        )
    return ref, "reference"


class _Monitor:
    """Collects per-iteration results and applies the stopping rule.

    With a reference, the monitored error is :func:`trace_distance` to
    the reference traces. Without one, it is the max-abs size of the latest update
    relative to the trace's own scale (clipped below at 1), so the rule
    degrades gracefully for traces near zero.
    """

    def __init__(self, config, cache, reference, metric, initial, prev):
        self.config = config
        self.cache = cache
        self.reference = reference
        self.metric = metric
        self.initial = tuple(initial)
        self.prev = list(prev)
        self.dirichlet: list[tuple[InterfaceTrace, ...]] = []
        self.errors: list[tuple[float, ...]] = []
        self.max_errors: list[float] = []
        self.converged_at: int | None = None

    def record(self, k: int, traces) -> bool:
        """Append iteration ``k``; True when the run should stop."""
        if self.metric == "reference":
            errs = trace_distance(traces, self.reference, self.cache)
        else:
            values = []
            for tr, old in zip(traces, self.prev):
                jump = float(np.max(np.abs(tr.samples - old.samples)))
                scale = max(1.0, float(np.max(np.abs(tr.samples))))
                values.append(jump / scale)
            errs = tuple(values)
        self.dirichlet.append(tuple(traces))
        self.errors.append(errs)
        worst = max(errs)
        self.max_errors.append(worst)
        self.prev = list(traces)
        if worst <= self.config.tol:
            self.converged_at = k
            return True
        return False

    def history(self) -> IterationHistory:
        return IterationHistory(
            config=self.config,
            initial=self.initial,
            dirichlet=tuple(self.dirichlet),
            errors=tuple(self.errors),
            max_errors=tuple(self.max_errors),
            converged_at=self.converged_at,
            metric=self.metric,
            reference=self.reference,
        )


def _drive(
    problem,
    partition: Partition1D,
    grids: RunGrids,
    config: WrConfig,
    init_guesses,
    reference,
    methods: tuple[Method, ...],
    start,
    bounds: dict[int, tuple[float, float]] | None = None,
) -> IterationHistory:
    """The loop every driver runs around its own sweep.

    Checks the method, builds the workspaces (on ``bounds`` where given)
    and normalizes the guesses. ``start(spaces, ygrid, cache, trace_grids,
    guesses)`` then returns ``(sweep, monitor_grids, prev)``: ``sweep()``
    runs one iteration and returns the monitored traces (on
    ``monitor_grids``, where the reference is resolved), and ``prev`` is
    what the first update is measured against.
    """
    if config.method not in methods:
        names = " or ".join(m.name for m in methods)
        raise ValidationError(f"config.method must be {names}, got {config.method}")
    spaces, ygrid = build_workspaces(problem, partition, grids, bounds)
    trace_grids = guess_grids(partition, grids, config)
    guesses = normalize_guesses(problem, partition, init_guesses, trace_grids, ygrid)
    cache = _PlanCache()
    sweep, monitor_grids, prev = start(spaces, ygrid, cache, trace_grids, guesses)
    ref, metric = resolve_reference(problem, partition, grids, reference, monitor_grids, ygrid)
    monitor = _Monitor(config, cache, ref, metric, initial=guesses, prev=prev)
    for k in range(1, config.max_iters + 1):
        if monitor.record(k, sweep()):
            break
    return monitor.history()
