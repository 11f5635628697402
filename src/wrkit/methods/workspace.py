"""Shared plumbing for the waveform-relaxation drivers.

This module owns everything the three methods have in common: the
per-run grid bundle, the lattice rules a run applies (partition span,
snapped y grid), one solver adapter class per model (data sampling,
physical boundary data, the traces a solve returns, impedance) with
the impulse responses that replace the march on the iteration path,
projection-plan caching between per-subdomain time grids, the
monodomain reference (one adapter's march on the whole domain) and its
resolution, the trace distance that is the error metric,
normalization of initial guesses, the per-iteration monitor that
applies the stopping rule, and the driver loop into which each method
plugs its sweep. A sweep is a function of the state one method
carries between sweeps (the interface traces, or the Schwarz
transmission pairs); the loop owns that state.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ..errors import IncompatibleGrids, NonFiniteTrace, NoReference, ValidationError
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
# The three public subdomain solvers are not called here (response builds
# march the kernels' batched cores); perfbench/spans.py looks them up in
# this module, so they stay importable from it.
from ..kernels import (  # noqa: F401
    HeatProblem,
    Wave2DProblem,
    WaveProblem,
    heat_interface_flux,
    sample,
    solve_heat_subdomain,
    solve_wave_strip_2d,
    solve_wave_subdomain,
    wave_interface_flux,
)
from ..kernels.common import check_bc, dirichlet_history, strip_data
from ..kernels.heat import _Block as _HeatBlock
from ..kernels.heat import _march as _heat_march
from ..kernels.heat import _step as _heat_step
from ..kernels.wave import _march as _wave_march
from ..kernels.wave import _Stencil as _WaveStencil
from ..kernels.problems import SpaceTimeField
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


@dataclass(frozen=True)
class Output:
    """One interface trace that a subdomain solve returns: ``kind`` at ``at``.

    DIRICHLET is the solution history at x = ``at``. NEUMANN is the
    impedance times the +x-oriented flux at side ``at`` (``"left"`` or
    ``"right"``), which must not carry Neumann data: c du/dx, the one
    Neumann quantity subdomains exchange and what a solve's Neumann side
    takes. It makes the fixed point of a piecewise-speed chain the
    piecewise monodomain scheme: the three-speed chain of acceptance
    check 08 drops by 3e-13 in three sweeps, and by 9.4e-2 if du/dx is
    exchanged instead. ROBIN is what the neighbour across side ``at``
    reads, (d/dn + ``robin_p``) u with that neighbour's outward normal:
    + flux + p u at the left side, - flux + p u at the right.
    """

    kind: TraceKind
    at: float | str
    robin_p: float | None = None


class _Workspace:
    """Solver adapter for one subdomain, one subclass per model. Internal to the drivers.

    Subclasses sample their model's data on the subdomain grids and
    supply ``_march(left_bc, right_bc, g_left, g_right, particular)``,
    one batched call of their kernel, and ``_flux(field, side, source)``,
    the Schur-consistent +x derivative history at one boundary of a
    marched field (with or without a batch axis). The march's entries
    share the boundary kinds of ``left_bc`` and ``right_bc`` and take
    their data from ``g_*``, whose last axis is the batch; with
    ``particular`` entry 0 also takes the initial data, the source and a
    strip's lids, and every other entry starts from zero. A
    ``homogeneous`` solve has zero initial data, source, physical
    boundary data and 2D lid data, as the Neumann-Neumann correction
    stage needs. ``impedance`` weights the slope carried across an
    interface (:class:`Output`): the wave speed, or 1 for heat. The
    static methods read the problem: speed per subdomain
    (None for heat), initial value function, and shared y grid (None in
    1D).

    A sweep reads a few traces off each solve, its outputs
    (:class:`Output`), which :meth:`read` takes off a marched field.
    :meth:`solve` returns them from a :class:`_Response`, one per key:
    the side kinds (with Robin p), the outputs and ``homogeneous``,
    which are fixed for a run. :func:`_build_all` builds every key's
    response before a run's first sweep, each from one batched march of
    the kernel; ``_march_all(jobs)`` makes the marches of many keys at
    once, as one block march per time grid for heat and one march per
    key for the wave models.
    ``_last_step(left_bc, right_bc, cur, prev, g_left, g_right)``, the
    kernel's own step on a batch of rows, gives a clipped grid's last
    row. :func:`build_workspaces` rejects any other time grid.
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
        self._responses: dict[tuple, _Response] = {}
        # While a recording sweep runs, the (space, key) pairs it solves,
        # in order, as the keys of a dict (see _build_all).
        self._recorded: dict | None = None

    @staticmethod
    def make_ygrid(problem, grids: RunGrids) -> SpaceGrid1D | None:
        return None

    @staticmethod
    def _march_all(jobs: list):
        """What ``space._march(*args)`` returns for each ``(space, args)`` of ``jobs``, in order.

        Each march is made when its field is asked for, so a build holds
        one field at a time (a strip's is about 13 MB at the benchmark's
        sizes).
        """
        return (space._march(*args) for space, args in jobs)

    def _batched(self, particular: bool, batch: int | None):
        """The data arrays with a batch axis, set in entry 0 if ``particular``; the source then.

        Without a batch (``batch`` None) the march is the particular part alone.
        """
        if batch is None:
            return list(self.data), self.problem.source
        out = []
        for a in self.data:
            b = np.zeros(a.shape + (batch,))
            if particular:
                b[..., 0] = a
            out.append(b)
        return out, self.problem.source if particular else None

    def _initial_rate(self):
        """u_t(., 0) for the flux of a wave solve; heat has none."""
        return None

    def physical_trace(self, side: str, homogeneous: bool = False) -> InterfaceTrace:
        """The problem's Dirichlet data at a physical x boundary (zero if homogeneous)."""
        if homogeneous:
            ny = None if self.ygrid is None else self.ygrid.n_cells
            return zero_trace(self.tgrid, TraceKind.DIRICHLET, ny=ny)
        fn = (
            self.problem.boundary_left if side == "left" else self.problem.boundary_right
        )
        return dirichlet_history(fn, self.tgrid, self.ygrid)

    def read(self, field: SpaceTimeField, output: Output, source=None) -> np.ndarray:
        """The samples of ``output`` on a marched field, batched or not.

        The field lies on this subdomain's x grid, or on the part of it
        that holds the columns ``output`` reads (:meth:`_narrow`).
        ``source`` goes to the flux, for a field that carries the source.
        """
        if output.kind is TraceKind.DIRICHLET:
            return field.values[:, field.xgrid.node_index(output.at)]
        flux = self._flux(field, output.at, source)
        if output.kind is TraceKind.NEUMANN:
            return self.impedance * flux
        sgn = 1.0 if output.at == "left" else -1.0
        return sgn * flux + output.robin_p * field.values[:, field.boundary_index(output.at)]

    def _narrow(self, output: Output) -> tuple[SpaceGrid1D, list[int]]:
        """A one-cell x grid holding the columns :meth:`read` reads for ``output``; their indices."""
        nx = self.xgrid.n_cells
        if output.kind is TraceKind.DIRICHLET:
            j = min(self.xgrid.node_index(output.at), nx - 1)
        else:
            j = 0 if output.at == "left" else nx - 1
        return SpaceGrid1D.with_cells(*self.xgrid.nodes[j : j + 2], 1), [j, j + 1]

    def solve(self, left_bc, right_bc, outputs, homogeneous=False) -> tuple[InterfaceTrace, ...]:
        """Solve the subdomain with interface data ``left_bc``/``right_bc``; return ``outputs``.

        A side at the end of the chain takes None and gets the problem's
        physical data (zero if homogeneous); Neumann data is c du/dx, as
        NEUMANN outputs are. ``outputs`` is a sequence of
        :class:`Output`; their traces come back in its order, on this
        subdomain's time grid, from the key's response, which
        :func:`_build_all` has built (a key it has not built raises
        ``KeyError``). While :func:`_build_all` records keys, a solve
        records its key and returns zero traces.
        """
        inputs = {side: bc for side, bc in (("left", left_bc), ("right", right_bc)) if bc is not None}
        ny = None if self.ygrid is None else self.ygrid.n_cells
        for side, bc in inputs.items():
            check_bc(bc, self.tgrid, side, ny)
        outputs = tuple(outputs)
        key = (tuple((side, bc.kind, bc.robin_p) for side, bc in inputs.items()), outputs, homogeneous)
        if self._recorded is None:
            return self._responses[key].apply(self, inputs)
        self._recorded[self, key] = None
        zero = np.zeros_like(next(iter(inputs.values())).samples)
        return tuple(InterfaceTrace(out.kind, self.tgrid, zero, robin_p=out.robin_p) for out in outputs)

    def _shape(self, kinds: tuple, outputs: tuple, homogeneous: bool) -> tuple:
        """What a response's impulse part depends on: grids, speed, side kinds, columns read."""
        reads = tuple(
            (out.kind, self.xgrid.node_index(out.at) if out.kind is TraceKind.DIRICHLET else out.at,
             out.robin_p)
            for out in outputs
        )
        x = self.xgrid
        return (type(self), x.n_cells, x.dx, self.tgrid, self.ygrid, self.impedance, kinds, reads, homogeneous)

    def _boundaries(self, inputs: dict, homogeneous: bool) -> tuple[InterfaceTrace, InterfaceTrace]:
        """Left and right data of one march: ``inputs``, physical data on the other sides."""
        return tuple(
            inputs[side] if side in inputs else self.physical_trace(side, homogeneous)
            for side in ("left", "right")
        )

    # A 1D trace is its own single mode; strips override these three.
    def _profile(self) -> float | np.ndarray:
        """The y profile of an impulse that excites every mode with unit weight."""
        return 1.0

    def _modes(self, samples: np.ndarray) -> np.ndarray:
        """Trace samples ``(..., [ny+1])`` to mode amplitudes ``(..., modes)``."""
        return samples[..., None]

    def _from_modes(self, base: np.ndarray, modes: np.ndarray) -> np.ndarray:
        """``base`` plus the trace that mode amplitudes ``modes`` stand for."""
        return base + modes[..., 0]


@cache
def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1), a length ``numpy.fft`` transforms fast."""
    odd = {3**b * 5**c for b in range(n.bit_length() + 1) for c in range(n.bit_length() + 1)}
    return min(m << ((n - 1) // m).bit_length() for m in odd)  # m times the least 2^a >= n / m


class _Response:
    """One subdomain's outputs for fixed interface-side kinds, as convolutions in time.

    Made from its key; :func:`_build_all`, which makes the marches of a
    run's keys together, takes from :meth:`march` the arguments of the
    one batched march of the adapter's own kernel on its time grid that
    the response needs and completes it from that march with
    :meth:`finish`. Entry 0 is the particular part: all data but the
    interface traces, which are zero (a homogeneous solve has no entry
    0: its particular part is exactly zero). Each further entry is one
    interface side's unit impulse at row 1 (1 / c at a Neumann side: the
    kernel takes du/dx), with zero data elsewhere.
    The response to an impulse at row m >= 1 is the row-1 response
    shifted by m - 1. Row 0 of an input is never read by the heat kernel
    or at a Dirichlet side, whose row 0 is the initial data. The wave
    kernels read it at a Neumann side, in the Taylor start, where its
    response is half the row-1 response shifted back one row; there the
    impulse goes in at row 0 and a row m >= 1 weighs twice its shifted
    response. The batch changes no bit of any entry.

    Each output is a fixed linear map of the field (:meth:`_Workspace.read`),
    applied here to the entries and never on a solve: the particular
    entry gives the output's particular part, and a solve adds causal
    convolutions of the interface traces with the output's impulse
    kernels. An output reads two x columns and, through its time
    difference, three rows at most; its own formula on unit fields of
    that size gives the weight of each value it reads, per mode. Away
    from the ends the formula is shift-invariant, so the kernel is those
    weights applied to the impulse march, from one row before the
    impulse on (the wave's central difference reads the next row).
    Row 0 (heat's forward difference, the wave's ghost form from the
    initial rate) and the last two rows (the wave's backward-shifted
    final row, a clipped grid's shorter step) have formulas of their
    own: a flux or Robin output takes them from weights on every input
    row (:meth:`_end_weights`); a Dirichlet trace, which has no time
    difference, only a clipped grid's last row.

    A clipped grid ``[0, dt, ..., M dt, T]`` is shift-invariant over its
    uniform prefix only: rows 0..M of its march are the march on
    ``times[:M + 1]`` (bit for bit), so they are convolved as above. Row
    M + 1 is one more kernel step, whose weights on every input row
    :meth:`_last` builds from the impulse entries.

    On strips the interface data are expanded in the sine modes of the
    interior y nodes, in which the scheme with zero lids decouples, and
    so does every output; an impulse whose profile holds every mode with
    unit weight gives every mode's response in one entry. Convolutions
    are ``numpy.fft`` real FFTs of length :func:`_fft_length` (2 rows -
    1): from 2 rows - 1 points on nothing wraps into output rows
    1..rows (a wave kernel has rows + 1 taps), and lengths whose prime
    factors are 2, 3 and 5 transform fast. For 201 rows that is 405
    points, where the next power of two is 512. ``scipy.fft.next_fast_len``
    (``real=True``) gives the same lengths, but importing ``scipy.fft``
    adds about 3 MB to the peak resident memory.

    The convolutions set an error floor above the march's. Run past
    convergence (sweeps 10-15), ``fig_wave_T5``'s monitored error stays
    at 1.3e-12 to 4.9e-12, against 2.1e-13 to 3.3e-13 with every solve
    marched; a ``tol`` of 3e-12 is met at the march's sweep 10 and 1e-12
    is never met. ``fig_wave_nonmatching`` (clipped grids) floors at
    5.3e-13 to 5.8e-13 marched or not, and ``tol`` 1e-10, 1e-11 and
    1e-12 take the march's sweeps 34, 37 and 40. A kernel that
    differences the data imposed at its own side applies its first three
    taps directly (``heads``); through the FFT they doubled that floor.
    """

    def __init__(self, space: _Workspace, kinds: tuple, outputs: tuple, homogeneous: bool):
        self.outputs = outputs
        self.homogeneous = homogeneous
        self.kinds = {side: (kind, p) for side, kind, p in kinds}
        self.sides = list(self.kinds)
        self.first = [0 if kind in space._row0_kinds else 1 for kind, _ in self.kinds.values()]

    def _bcs(self, space: _Workspace) -> tuple[InterfaceTrace, InterfaceTrace]:
        """Left and right data of the build's march: zero at the interface sides.

        Made when asked for, so a response waiting to be built holds no arrays.
        """
        m = len(space.tgrid.times)
        shape = (m,) if space.ygrid is None else (m, space.ygrid.n_nodes)
        zero = {
            side: InterfaceTrace(kind, space.tgrid, np.zeros(shape), robin_p=p)
            for side, (kind, p) in self.kinds.items()
        }
        return space._boundaries(zero, self.homogeneous)

    def _impulse(self, space: _Workspace, side: str):
        """The kernel data of a unit impulse at ``side``: the profile, over c at a Neumann side."""
        profile = space._profile()
        return profile / space.impedance if self.kinds[side][0] is TraceKind.NEUMANN else profile

    def march(self, space: _Workspace, like) -> tuple:
        """The arguments of the one batched ``space._march`` that the build makes.

        With ``like``, a response of the same impulse part, it marches
        the particular part alone, without a batch.
        """
        bcs = self._bcs(space)
        if like is not None:
            return (*bcs, bcs[0].samples, bcs[1].samples, True)
        lead = 0 if self.homogeneous else 1
        data = []
        for side, bc in zip(("left", "right"), bcs):
            g = np.zeros(bc.samples.shape + (lead + len(self.sides),))
            if side in self.kinds:
                e = self.sides.index(side)
                g[self.first[e], ..., lead + e] = self._impulse(space, side)
            elif lead:
                g[..., 0] = bc.samples  # the physical data
            data.append(g)
        return (*bcs, *data, not self.homogeneous)

    def finish(self, space: _Workspace, like, values: np.ndarray | None) -> None:
        """Complete the response from ``values``, what ``space._march`` returns for :meth:`march`.

        With ``like`` the impulse part is ``like``'s; a homogeneous
        response then has no march, and ``values`` is None.
        """
        grid, times = space.tgrid, space.tgrid.times
        n_rows = len(times)
        outputs, homogeneous = self.outputs, self.homogeneous
        bcs = self._bcs(space)
        self.base = np.zeros((len(outputs),) + bcs[0].samples.shape)

        def particular(values: np.ndarray) -> np.ndarray:
            """The outputs of the particular march ``values``."""
            rate = space._initial_rate()
            field = SpaceTimeField(space.xgrid, grid, values, bcs[0].kind, bcs[1].kind, space.ygrid, rate)
            return np.stack([space.read(field, out, space.problem.source) for out in outputs])

        if like is not None:
            for name in ("rows", "length", "sides", "weights", "kernels", "heads", "ends", "special"):
                setattr(self, name, getattr(like, name))
            if not homogeneous:
                self.base = particular(values)
            return

        kinds = (bcs[0].kind, bcs[1].kind)
        self.rows = rows = n_rows - (0 if grid.uniform else 1)  # the uniform prefix
        self.length = _fft_length(2 * rows - 1)
        first, lead = self.first, 0 if homogeneous else 1
        if not homogeneous:
            self.base = particular(values[..., 0])

        # Each input row's weight in the field: 1 past row 0, or at a side
        # read at row 0, 1 at row 0 and 2 past it.
        weights = np.array([[1.0 - f] + [2.0 - f] * (n_rows - 1) for f in first])
        self.weights = weights[:, :rows, None]
        # The impulse marches at the columns the outputs read, in modes
        # (rows, columns, sides, modes); on a clipped grid, the weights of
        # the input rows in their last row.
        narrow = [space._narrow(out) for out in outputs]
        cols = sorted({j for _, pair in narrow for j in pair})
        impulses = values[..., lead:]
        march = space._modes(np.moveaxis(impulses[:rows, cols], -1, 2))
        last = [
            space._modes(self._last(space, bcs, side, impulses[..., e], first[e], weights[e], cols))
            for e, side in enumerate(self.sides)
            if not grid.uniform
        ]

        # Unit fields on three uniform steps give row 0, an interior row
        # and, on a uniform grid, the last two rows; other grids take
        # their own last three rows.
        start = TimeGrid(np.arange(3) * times[1])
        lo = max(0, n_rows - 3)
        at_end = start if grid.uniform and n_rows >= 3 else TimeGrid(times[lo:] - times[lo])
        end_rows = [0] + list(range(max(1, n_rows - 2), n_rows))

        def probe(out: Output, xgrid: SpaceGrid1D, tgrid: TimeGrid) -> np.ndarray:
            """The weight ``(rows, rows, 2, modes)`` of each field row and column in each output row."""
            n = len(tgrid.times)
            unit = np.einsum("icb,...->ic...b", np.eye(2 * n).reshape(n, 2, 2 * n), space._profile())
            rate = np.broadcast_to(0.0, unit.shape[1:])
            got = space.read(SpaceTimeField(xgrid, tgrid, unit, *kinds, space.ygrid, rate), out)
            return space._modes(np.moveaxis(got, -1, 1)).reshape(n, n, 2, -1)

        k = march.shape[-1]

        def own(formula: np.ndarray, interior: np.ndarray, at: int) -> bool:
            """Whether a row's weights on its window rows differ from the interior ones at ``at``."""
            placed = np.zeros((len(formula) + 2, 2, k))  # window rows -1 .. n
            placed[at : at + 3] = interior
            return (placed[[0, -1]] != 0).any() or not np.array_equal(placed[1:-1], formula)

        # The (output, row) pairs taken from weights: the rows whose formula
        # is not the interior one, and a clipped grid's last row.
        phis, self.special = [], []
        for o, (out, (xgrid, _)) in enumerate(zip(outputs, narrow)):
            phi = probe(out, xgrid, start)
            phi_end = phi if at_end is start else probe(out, xgrid, at_end)
            phis.append((phi, phi_end[end_rows[1] - lo :]))
            if own(phi[0], phi[1], 0):
                self.special.append((o, 0))
            for r in end_rows[1:]:
                if (r == n_rows - 1 and not grid.uniform) or own(phi_end[r - lo], phi[1], r - lo):
                    self.special.append((o, r))
        self.kernels = np.empty((len(self.sides), len(outputs), self.length // 2 + 1, k), complex)
        self.heads = []  # (output, side, first taps) applied directly on a solve
        ends = np.zeros((k, len(self.special), len(self.sides), n_rows))
        for o, (out, (_, pair), (phi, phi_end)) in enumerate(zip(outputs, narrow, phis)):
            wanted = [(i, end_rows.index(r)) for i, (oo, r) in enumerate(self.special) if oo == o]
            at = [cols.index(j) for j in pair]
            for e, f in enumerate(first):
                m = march[:, at, e]
                # The interior formula at impulse rows f - 1 .. rows - 1, the
                # march zero outside its rows.
                z = np.concatenate((np.zeros_like(m[:2]), m, np.zeros_like(m[:2])))
                taps = np.stack([z[f + d : f + d + rows + 1] for d in range(3)])
                kernel = np.einsum("dck,dick->ik", phi[1], taps)
                if out.kind is not TraceKind.DIRICHLET and out.at == self.sides[e]:
                    # A time difference of the data imposed at this side: its
                    # large stencil sits in the first taps, applied directly,
                    # since the FFT would spread their rounding over all rows.
                    self.heads.append((o, e, kernel[:3].copy()))
                    kernel[:3] = 0.0
                self.kernels[e, o] = np.fft.rfft(kernel, n=self.length, axis=0)
                if wanted:
                    end = last[e][:, at] if last else None
                    w = np.concatenate((
                        self._end_weights(phi[:1, :2], range(2), m, end, f, weights[e]),
                        self._end_weights(phi_end, range(lo, n_rows), m, end, f, weights[e]),
                    ))
                    index, rows_w = (list(x) for x in zip(*wanted))
                    ends[:, index, e] = np.moveaxis(w[rows_w], -1, 0)
        # (modes, special rows, sides * input rows): one product per mode on a solve
        self.ends = ends.reshape(k, len(self.special), len(self.sides) * n_rows)
        self.special = tuple(np.array(index, dtype=int) for index in zip(*self.special))

    def _end_weights(self, phi, ns, march: np.ndarray, last, first: int, weights) -> np.ndarray:
        """Weights ``(output rows, input rows, modes)`` of one side's input rows in some output rows.

        ``phi[t, i, c]`` is the weight of field row ``ns[i]``, column c
        in output row t; ``march`` holds the two columns of that side's
        impulse march in modes, ``(rows, 2, modes)``. Input row m reaches
        field row n through impulse row n + first - m; row M + 1 of a
        clipped grid is ``last``, the same columns of :meth:`_last`.
        """
        rows = self.rows
        out = np.zeros((len(phi), len(weights), march.shape[-1]))
        reached = np.einsum("tick,jck->tijk", phi, march[: ns[-1] + first + 1])
        for i, n in enumerate(ns):
            if n == rows:  # a clipped grid's last row
                out += np.einsum("tck,mck->tmk", phi[:, i], last)
                continue
            lo, hi = max(0, n + first - rows + 1), min(n + first, len(weights) - 1)
            if lo <= hi:
                shifted = reached[:, i, first + n - hi : first + n - lo + 1][:, ::-1]
                out[:, lo : hi + 1] += shifted * weights[lo : hi + 1, None]
        return out

    def _last(self, space: _Workspace, bcs, side: str, values: np.ndarray, first: int, weights, cols):
        """Weights ``(M + 2, columns[, ny+1])`` of each row of ``side``'s data in the last field row.

        ``values`` is ``side``'s impulse entry, of which columns ``cols``
        are kept. Its step from rows i - 1 and i with zero data is q[i];
        an input row m reaches the last row through rows M - 1 and M of
        its shifted response, so it weighs ``weights[m] * q[M - m + first]``.
        A last batch entry steps zero rows with the impulse as the data
        the step reads: the weight of row M + first.
        """
        M = self.rows - 1
        zero = np.zeros_like(values[:1])
        cur = np.concatenate((values[: M + 1], zero))
        prev = np.concatenate((zero, values[:M], zero))
        data = np.zeros((M + 2,) + bcs[0].samples.shape[1:])
        data[-1] = self._impulse(space, side)
        g = [data if s == side else np.zeros_like(data) for s in ("left", "right")]
        # The rows ride along as the last axis, 64 at a time to keep the step's temporaries small.
        batch = [np.moveaxis(a, 0, -1) for a in (cur, prev, *g)]
        steps = [
            space._last_step(*bcs, *(a[..., s : s + 64] for a in batch))[cols]
            for s in range(0, M + 2, 64)
        ]
        q = np.moveaxis(np.concatenate(steps, axis=-1), -1, 0)
        last = np.zeros_like(q)
        shape = (-1,) + (1,) * (q.ndim - 1)
        last[first : M + 1] = weights[first : M + 1].reshape(shape) * q[first : M + 1][::-1]
        last[M + first] += q[-1]
        return last

    def apply(self, space: _Workspace, inputs: dict) -> tuple[InterfaceTrace, ...]:
        """The outputs of ``space``'s solve with interface data ``inputs``."""
        modes = [space._modes(inputs[side].samples) for side in self.sides]
        weighted = [w * m[: self.rows] for w, m in zip(self.weights, modes)]
        total = 0.0
        for kernels, w in zip(self.kernels, weighted):
            total = total + kernels * np.fft.rfft(w, n=self.length, axis=0)
        convolved = np.fft.irfft(total, n=self.length, axis=1)[:, 1 : self.rows + 1]
        for o, e, taps in self.heads:  # output row r reads input rows r + 1, r and r - 1
            w, out = weighted[e], convolved[o]
            out[:-1] += taps[0] * w[1:]
            out += taps[1] * w
            out[1:] += taps[2] * w[:-1]
        if not space.tgrid.uniform:
            convolved = np.concatenate((convolved, convolved[:, :1]), axis=1)
        if self.special:
            stacked = np.concatenate(modes)
            convolved[self.special] = (self.ends @ stacked.T[:, :, None])[..., 0].T
        samples = space._from_modes(self.base, convolved)
        return tuple(
            InterfaceTrace(out.kind, space.tgrid, trace, robin_p=out.robin_p)
            for out, trace in zip(self.outputs, samples)
        )


def _build_all(spaces: dict[int, _Workspace], sweep, state) -> None:
    """Build every response the sweeps of a run solve, before the first sweep.

    The keys a sweep solves are fixed for the run, and a sweep keeps
    nothing between calls, so one sweep of ``state`` whose solves record
    their keys and return zero traces finds them all; its result is
    dropped. The subdomains of the run share their responses' impulse
    parts: a key that matches an earlier one in all its impulse part
    depends on (:meth:`_Workspace._shape`: grids, speed, side kinds,
    columns read) takes that one's and marches its particular part
    alone, without a batch, or nothing if homogeneous. The marches go to
    the model's ``_march_all`` together, so heat keys on one time grid
    march as one block system, and each response is finished as its
    field arrives.
    """
    recorded: dict = {}
    for space in spaces.values():
        space._recorded = recorded
    try:
        sweep(state)
    finally:
        for space in spaces.values():
            space._recorded = None
    built, first = [], {}
    for space, key in recorded:
        response = _Response(space, *key)
        like = first.setdefault(space._shape(*key), response)
        like = None if like is response else like
        built.append((space, key, response, like, like is None or not response.homogeneous))
    jobs = ((space, response.march(space, like)) for space, _, response, like, marches in built if marches)
    fields = iter(type(next(iter(spaces.values())))._march_all(jobs))
    for space, key, response, like, marches in built:
        response.finish(space, like, next(fields) if marches else None)
        space._responses[key] = response


def _batch(bc: InterfaceTrace, g: np.ndarray) -> int | None:
    """The batch size of march data ``g`` for boundary ``bc``, None without a batch axis."""
    return g.shape[-1] if g.ndim > bc.samples.ndim else None


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

    def _block(self, left_bc, right_bc, g_left, g_right, particular) -> _HeatBlock:
        (u0,), source = self._batched(particular, _batch(left_bc, g_left))
        return _HeatBlock(self.xgrid, self.problem.nu, u0, left_bc, right_bc, g_left, g_right, source)

    def _march(self, *args) -> np.ndarray:
        return _heat_march(self.tgrid, [self._block(*args)])[0]

    @staticmethod
    def _march_all(jobs: list) -> list[np.ndarray]:
        """One block march per time grid, each job's march one block of it."""
        jobs, fields = list(jobs), {}
        for tgrid in dict.fromkeys(space.tgrid for space, _ in jobs):
            mine = [i for i, (space, _) in enumerate(jobs) if space.tgrid is tgrid]
            fields.update(zip(mine, _heat_march(tgrid, [jobs[i][0]._block(*jobs[i][1]) for i in mine])))
        return [fields[i] for i in range(len(jobs))]

    def _last_step(self, left_bc, right_bc, cur, prev, g_left, g_right) -> np.ndarray:
        return _heat_step(self.xgrid, self.problem.nu, left_bc, right_bc, cur, self.tgrid.steps[-1], g_left, g_right)

    def _flux(self, field, side: str, source) -> np.ndarray:
        return heat_interface_flux(field, side, self.problem.nu, source)


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
            raise ValidationError(
                f"need one wave speed per subdomain of the partition ({n}), got {len(speeds)}"
            )
        return speeds

    @staticmethod
    def initial_value(problem):
        return problem.initial_u

    def _sample(self) -> list[np.ndarray]:
        problem, x = self.problem, self.xgrid.nodes
        return [sample(problem.initial_u, x.shape, x), sample(problem.initial_ut, x.shape, x)]

    def _march(self, left_bc, right_bc, g_left, g_right, particular) -> np.ndarray:
        # a strip's data ends in its lids
        (u0, v0, *lids), source = self._batched(particular, _batch(left_bc, g_left))
        return _wave_march(
            self.xgrid, self.ygrid, self.c, self.tgrid, u0, v0, left_bc, right_bc, g_left, g_right,
            lids or None, source,
        )

    def _initial_rate(self):
        return self.data[1]

    def _last_step(self, left_bc, right_bc, cur, prev, g_left, g_right) -> np.ndarray:
        tau_prev, tau = self.tgrid.steps[-2:]
        stencil = _WaveStencil(self.xgrid, self.ygrid, self.c, left_bc.kind, right_bc.kind)
        return stencil.step(cur, prev, tau, tau_prev, g_left, g_right)

    def _flux(self, field, side: str, source) -> np.ndarray:
        return wave_interface_flux(field, side, self.c, source)


class _Strip2D(_Wave1D):
    """u_tt = c^2 (u_xx + u_yy) + f on one strip, with pre-sampled lid data.

    Response solves work in the sine modes of the interior y nodes: the
    orthonormal DST-I matrix, which is its own inverse.
    """

    @staticmethod
    def make_ygrid(problem, grids: RunGrids) -> SpaceGrid1D:
        if grids.dy is None:
            raise ValidationError("2D strip runs need dy in RunGrids")
        return snap_ygrid(problem.y_interval, grids.dy)

    def _sample(self) -> list[np.ndarray]:
        if self.ygrid is None:
            raise ValidationError("a strip solve needs a y grid")
        return strip_data(self.problem, self.xgrid, self.ygrid, self.tgrid)

    @cached_property
    def _sine(self) -> np.ndarray:
        ny = self.ygrid.n_cells
        k = np.arange(1, ny)
        return np.sqrt(2.0 / ny) * np.sin(np.pi * np.outer(k, k) / ny)

    def _profile(self) -> np.ndarray:
        profile = np.zeros(self.ygrid.n_nodes)
        profile[1:-1] = self._sine.sum(axis=1)
        return profile

    def _modes(self, samples: np.ndarray) -> np.ndarray:
        # matmul takes its BLAS path only with y the contiguous axis
        return np.ascontiguousarray(samples[..., 1:-1]) @ self._sine

    def _from_modes(self, base: np.ndarray, modes: np.ndarray) -> np.ndarray:
        out = np.array(base)
        out[..., 1:-1] += modes @ self._sine
        return out


_ADAPTERS = {HeatProblem: _Heat1D, WaveProblem: _Wave1D, Wave2DProblem: _Strip2D}


def _adapter(problem) -> type[_Workspace]:
    """The workspace class of a problem's model."""
    model = _ADAPTERS.get(type(problem))
    if model is None:
        raise TypeError(f"unsupported problem type: {type(problem).__name__}")
    return model


def _solve_all(
    spaces: dict[int, _Workspace], cache: _PlanCache, inner, reads: dict, homogeneous: bool = False
) -> dict:
    """Solve every subdomain once, in the order of ``spaces``.

    ``inner(s, i, traces)`` is the data subdomain ``s`` takes at interface
    ``i``, on any time grid: it is projected onto ``s``'s here. ``traces``
    holds what the subdomains solved so far returned, so a later solve may
    take data from an earlier one. The two ends of the chain take the
    physical data (zero data in a homogeneous solve). ``reads[s]`` maps
    names to the outputs (:class:`Output`) of subdomain ``s``; the result
    maps each ``s`` to the same names, with their traces.
    """
    n = len(spaces)
    traces = {}
    for s, space in spaces.items():
        left, right = (
            None if i in (0, n) else cache.project(inner(s, i, traces), space.tgrid) for i in (s - 1, s)
        )
        names = reads[s]
        traces[s] = dict(zip(names, space.solve(left, right, names.values(), homogeneous)))
    return traces


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

    check_span(problem.interval, partition)

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


def traces_from_field(field: SpaceTimeField, partition: Partition1D) -> tuple[InterfaceTrace, ...]:
    """Dirichlet interface histories of a full-domain field, one per interface, on its time grid.

    Used for references.
    """
    out = []
    for i in range(1, partition.n_interfaces + 1):
        j = field.xgrid.node_index(partition.interface_position(i))
        out.append(InterfaceTrace(TraceKind.DIRICHLET, field.tgrid, field.values[:, j]))
    return tuple(out)


def solve_monodomain(
    problem,
    xgrid: SpaceGrid1D,
    tgrid: TimeGrid,
    ygrid: SpaceGrid1D | None = None,
    partition: Partition1D | None = None,
) -> SpaceTimeField:
    """Solve the stated problem on the full domain with physical boundary data.

    This is the particular march of one subdomain that spans the domain,
    the scheme the iterations converge to. Per-subdomain wave speeds
    that differ need ``partition`` (without one the domain is a single
    subdomain) and march as one speed per cell; equal ones march as one
    speed.
    """
    model = _adapter(problem)
    n = 1 if partition is None else partition.n_subdomains
    speeds = model.speeds(problem, n)
    speed = speeds[0]
    if len(set(speeds)) > 1:
        cuts = [xgrid.node_index(partition.interface_position(i)) for i in range(1, n)]
        speed = np.repeat(speeds, np.diff([0, *cuts, xgrid.n_cells]))
    space = model(problem, xgrid, tgrid, ygrid, speed)
    left, right = space._boundaries({}, False)
    values = space._march(left, right, left.samples, right.samples, True)
    return SpaceTimeField(xgrid, tgrid, values, left.kind, right.kind, ygrid, space._initial_rate())


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


def _setup(
    problem,
    partition: Partition1D,
    grids: RunGrids,
    config: WrConfig,
    init_guesses,
    reference,
    start,
    bounds: dict[int, tuple[float, float]] | None,
):
    """Everything :func:`_drive` does before its first sweep.

    Builds the workspaces (on ``bounds`` where not None) and normalizes
    the guesses. ``start(spaces, ygrid, cache, trace_grids, guesses)``
    then returns ``(state, sweep, monitor_grids, prev)``: ``sweep(state)``
    runs one iteration and returns ``(state, monitored)``, the next state
    and the monitored traces (on ``monitor_grids``, where the reference
    is resolved); it keeps nothing between calls. ``prev`` is what the
    first update is measured against. Returns ``(state, sweep,
    monitor)``, with the :class:`_Monitor` that applies the stopping rule.
    """
    spaces, ygrid = build_workspaces(problem, partition, grids, bounds)
    trace_grids = guess_grids(partition, grids, config)
    guesses = normalize_guesses(problem, partition, init_guesses, trace_grids, ygrid)
    cache = _PlanCache()
    state, sweep, monitor_grids, prev = start(spaces, ygrid, cache, trace_grids, guesses)
    _build_all(spaces, sweep, state)
    ref, metric = resolve_reference(problem, partition, grids, reference, monitor_grids, ygrid)
    return state, sweep, _Monitor(config, cache, ref, metric, initial=guesses, prev=prev)


@contextmanager
def _quiet_overflow():
    """Numpy's overflow and invalid-value warnings off, as a WrkitError reports a blow-up."""
    with warnings.catch_warnings():
        # A filter costs nothing per ufunc call, unlike np.errstate.
        warnings.filterwarnings("ignore", "(overflow|invalid value) encountered", RuntimeWarning)
        yield


def _drive(*args, **kwargs) -> IterationHistory:
    """Set up as :func:`_setup` does, then sweep from the method's state.

    A sweep whose traces stop being finite raises
    :class:`~wrkit.errors.NonFiniteTrace` naming the sweep; that error,
    not numpy's overflow warnings, is what reports a run that diverged.
    The response builds of the setup run under the same filter.
    """
    with _quiet_overflow():
        state, sweep, monitor = _setup(*args, **kwargs)
        for k in range(1, monitor.config.max_iters + 1):
            try:
                state, monitored = sweep(state)
            except NonFiniteTrace as exc:
                raise NonFiniteTrace(f"sweep {k}: {exc}") from None
            if monitor.record(k, monitored):
                break
    return monitor.history()
