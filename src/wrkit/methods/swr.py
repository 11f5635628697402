"""Schwarz waveform relaxation, overlapping and Robin: one sweep over transmission pairs."""

from __future__ import annotations

from ..errors import ValidationError
from ..grids import InterfaceTrace, Partition1D, TraceKind
from .config import Method, WrConfig
from .workspace import Output, RunGrids, _adapter, _solve_all, force_compatible

__all__ = ["plan"]


def schwarz_shift(config: WrConfig, partition: Partition1D, dx: float, speeds) -> float:
    """How far classical Schwarz extends each subdomain into its neighbors (0 for Robin).

    Raises :class:`ValidationError` for Robin transmission on a wave
    model, for ``speeds`` (one per subdomain, None for heat) that differ
    and for an overlap past a neighboring subdomain. ``plan`` and
    ``load_config`` both apply it.
    """
    if config.method is Method.SWR_ROBIN and any(c is not None for c in speeds):
        # Robin Schwarz diverges on waves. On fig_wave_T5, from an initial
        # error of 23.7, the max interface error after 200 sweeps is 4.4e30
        # at p = 1 and 2.3e69 at p = 4; at p = 4, 1000 sweeps reach 1.5e157
        # in 21-28 s on a 2-vCPU host, and the run exits 0 with "did not
        # converge".
        raise ValidationError("Robin Schwarz transmission diverges on wave models; use it on heat1d")
    if len(set(speeds)) > 1:
        raise ValidationError("Schwarz transmission across wave speed jumps is not supported")
    if config.method is not Method.SWR_CLASSICAL:
        return 0.0
    shift = config.overlap_cells * dx
    if shift >= partition.h_min:
        raise ValidationError(
            f"overlap {shift!r} must stay inside the neighboring subdomains "
            f"(narrowest is {partition.h_min!r})"
        )
    return shift


def _extended_bounds(partition: Partition1D, shift: float) -> dict[int, tuple[float, float]]:
    """Subdomain intervals pushed ``shift`` into each neighbor (clipped at the ends)."""
    n = partition.n_subdomains
    bounds = {}
    for i in range(1, n + 1):
        lo, hi = partition.bounds(i)
        bounds[i] = (lo if i == 1 else lo - shift, hi if i == n else hi + shift)
    return bounds


def plan(problem, partition: Partition1D, grids: RunGrids, config: WrConfig):
    """``(start, bounds)`` of a Schwarz waveform relaxation, classical or Robin.

    Every iteration solves all subdomains independently with transmission
    data taken from the neighbors' previous solves:

    * classical (``Method.SWR_CLASSICAL``): subdomains are extended by
      ``overlap_cells`` lattice cells into each neighbor and exchange
      Dirichlet values at the extended boundaries;
    * Robin (``Method.SWR_ROBIN``): subdomains do not overlap and
      exchange the outward combination ``du/dn + p u`` at the interfaces;
      heat problems only (see :func:`schwarz_shift`).

    The Dirichlet guess at each interface (the usual guess presets) seeds
    the transmission data on both sides of it. For Robin runs the guess
    values are used directly as initial Robin data. The state a sweep
    maps to the next is the list of transmission pairs, one per
    interface; the guesses also seed the monitored history.

    The monitored interface trace is the left neighbor's solution history
    at the interface coordinate. There is no relaxation; theta is ignored.
    """
    if config.method is Method.SWR_ROBIN:
        kind, robin_p = TraceKind.ROBIN, config.robin_p
    else:
        kind, robin_p = TraceKind.DIRICHLET, None
    speeds = _adapter(problem).speeds(problem, partition.n_subdomains)
    shift = schwarz_shift(config, partition, grids.dx, speeds)

    def start(spaces, ygrid, cache, seed_grids, guesses):
        def seed(guess, grid, x):
            """Transmission data from a Dirichlet guess, for the consumer on ``grid`` at ``x``."""
            trace = cache.project(guess, grid)
            if robin_p is None:
                return force_compatible(trace, problem, x, ygrid)
            return InterfaceTrace(TraceKind.ROBIN, grid, trace.samples, robin_p=robin_p)

        positions = [partition.interface_position(i) for i in range(1, partition.n_interfaces + 1)]
        # What the sweep reads of subdomain s: the data its left neighbour
        # takes, the data its right neighbour takes and its own history at
        # its right interface, the monitored trace. Classical Schwarz
        # reads u at the neighbours' extended boundaries, Robin Schwarz
        # the outward combination at the interfaces.
        n = partition.n_subdomains
        reads = {s: {} for s in spaces}
        for s in spaces:
            if s > 1:
                at = positions[s - 2] + shift if robin_p is None else "left"
                reads[s]["for_left"] = Output(kind, at, robin_p)
            if s < n:
                at = positions[s - 1] - shift if robin_p is None else "right"
                reads[s]["for_right"] = Output(kind, at, robin_p)
                reads[s]["monitored"] = Output(TraceKind.DIRICHLET, positions[s - 1])
        # Transmission state, one pair per interface: data consumed by the
        # left subdomain at its right (possibly extended) boundary, and by
        # the right subdomain at its left one. The seeds are on the
        # consumers' grids, later pairs on their producers'.
        state = [
            (seed(g, grids.tgrids[i], xi + shift), seed(g, grids.tgrids[i + 1], xi - shift))
            for i, (g, xi) in enumerate(zip(guesses, positions))
        ]

        # Monitored history starts from the guesses read at the interfaces.
        prev = [
            force_compatible(cache.project(g, grids.tgrids[i]), problem, xi, ygrid)
            for i, (g, xi) in enumerate(zip(guesses, positions))
        ]

        def sweep(pairs):
            read = _solve_all(spaces, cache, lambda s, i, _: pairs[i - 1][1 if i < s else 0], reads)
            pairs = [(read[i + 1]["for_left"], read[i]["for_right"]) for i in range(1, n)]
            return pairs, [read[i]["monitored"] for i in range(1, n)]

        return state, sweep, grids.tgrids[:-1], prev

    return start, _extended_bounds(partition, shift)

