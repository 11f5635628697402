"""Schwarz waveform-relaxation drivers: overlapping and Robin variants."""

from __future__ import annotations

from ..errors import IncompatibleGrids, ValidationError
from ..grids import InterfaceTrace, Partition1D, TraceKind, grids_equal
from .config import Method, WrConfig
from .workspace import RunGrids, _adapter, _drive, _solve_all, force_compatible

__all__ = ["swr_run"]


def schwarz_shift(config: WrConfig, partition: Partition1D, dx: float, speeds) -> float:
    """How far classical Schwarz extends each subdomain into its neighbors (0 for Robin).

    Raises :class:`ValidationError` for Robin transmission on a wave
    model, for ``speeds`` (one per subdomain, None for heat) that differ
    and for an overlap past a neighboring subdomain. ``swr_run`` and
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


def swr_run(
    problem,
    partition: Partition1D,
    grids: RunGrids,
    config: WrConfig,
    init_guesses,
    reference="auto",
    state=None,
):
    """Iterate a Schwarz waveform relaxation (classical or Robin).

    Every iteration solves all subdomains independently with transmission
    data taken from the neighbors' previous solves:

    * classical (``Method.SWR_CLASSICAL``): subdomains are extended by
      ``overlap_cells`` lattice cells into each neighbor and exchange
      Dirichlet values at the extended boundaries;
    * Robin (``Method.SWR_ROBIN``): subdomains do not overlap and
      exchange the outward combination ``du/dn + p u`` at the interfaces;
      heat problems only (see :func:`schwarz_shift`).

    ``init_guesses`` supplies one Dirichlet trace per interface (the
    usual guess presets); it seeds the transmission data on both sides of
    each interface. For Robin runs the guess values are used directly as
    initial Robin data. ``state`` optionally overrides the seeded
    transmission data with explicit per-interface pairs (as produced by
    :func:`~wrkit.methods.swr_state_from_field`), which warm-starts the
    iteration; the guesses still seed the monitored history.

    The monitored interface trace is the left neighbor's solution history
    at the interface coordinate. There is no relaxation; theta is ignored.
    """
    classical = config.method is Method.SWR_CLASSICAL
    speeds = _adapter(problem).speeds(problem, partition.n_subdomains)
    shift = schwarz_shift(config, partition, grids.dx, speeds)
    bounds = _extended_bounds(partition, shift) if classical else None

    def start(spaces, ygrid, cache, seed_grids, guesses):
        nonlocal state
        # Transmission state, one pair per interface: data consumed by the
        # left subdomain at its right (possibly extended) boundary, and by
        # the right subdomain at its left one. Stored on the consumer grids.
        if state is None:
            state = []
            for i in range(1, partition.n_interfaces + 1):
                xi = partition.interface_position(i)
                left_grid = grids.tgrids[i - 1]
                right_grid = grids.tgrids[i]
                for_left = cache.project(guesses[i - 1], left_grid)
                for_right = cache.project(guesses[i - 1], right_grid)
                if classical:
                    for_left = force_compatible(for_left, problem, xi + shift, ygrid)
                    for_right = force_compatible(for_right, problem, xi - shift, ygrid)
                else:
                    p = config.robin_p
                    for_left = InterfaceTrace(TraceKind.ROBIN, left_grid, for_left.samples, robin_p=p)
                    for_right = InterfaceTrace(
                        TraceKind.ROBIN, right_grid, for_right.samples, robin_p=p
                    )
                state.append((for_left, for_right))
        else:
            state = [tuple(pair) for pair in state]
            if len(state) != partition.n_interfaces:
                raise ValidationError(
                    f"need one transmission pair per interface ({partition.n_interfaces})"
                )
            want = TraceKind.DIRICHLET if classical else TraceKind.ROBIN
            for i, (for_left, for_right) in enumerate(state, start=1):
                ok = (
                    for_left.kind is want
                    and for_right.kind is want
                    and grids_equal(for_left.grid, grids.tgrids[i - 1])
                    and grids_equal(for_right.grid, grids.tgrids[i])
                )
                if not classical:
                    ok = ok and for_left.robin_p == config.robin_p == for_right.robin_p
                if not ok:
                    raise IncompatibleGrids(f"transmission pair {i} does not fit this run")

        # Monitored history starts from the guesses read at the interfaces.
        prev = [
            force_compatible(
                cache.project(guesses[i - 1], grids.tgrids[i - 1]),
                problem,
                partition.interface_position(i),
                ygrid,
            )
            for i in range(1, partition.n_interfaces + 1)
        ]

        def sweep():
            nonlocal state
            fields = _solve_all(spaces, lambda s, i: state[i - 1][1 if i < s else 0])

            new_state = []
            monitored = []
            for i in range(1, partition.n_interfaces + 1):
                xi = partition.interface_position(i)
                left_space, right_space = spaces[i], spaces[i + 1]
                left_field, right_field = fields[i], fields[i + 1]
                if classical:
                    j_in_right = right_space.xgrid.node_index(xi + shift)
                    j_in_left = left_space.xgrid.node_index(xi - shift)
                    for_left = InterfaceTrace(
                        TraceKind.DIRICHLET, right_space.tgrid, right_field.values[:, j_in_right]
                    )
                    for_right = InterfaceTrace(
                        TraceKind.DIRICHLET, left_space.tgrid, left_field.values[:, j_in_left]
                    )
                else:
                    p = config.robin_p
                    w_left = left_space.flux(left_field, "right")
                    w_right = right_space.flux(right_field, "left")
                    for_left = InterfaceTrace(
                        TraceKind.ROBIN,
                        right_space.tgrid,
                        w_right.samples + p * right_field.boundary_values("left"),
                        robin_p=p,
                    )
                    for_right = InterfaceTrace(
                        TraceKind.ROBIN,
                        left_space.tgrid,
                        -w_left.samples + p * left_field.boundary_values("right"),
                        robin_p=p,
                    )
                new_state.append(
                    (
                        cache.project(for_left, left_space.tgrid),
                        cache.project(for_right, right_space.tgrid),
                    )
                )

                j_iface = left_space.xgrid.node_index(xi)
                monitored.append(
                    InterfaceTrace(TraceKind.DIRICHLET, left_space.tgrid, left_field.values[:, j_iface])
                )
            state = new_state
            return monitored

        return sweep, grids.tgrids[:-1], prev

    return _drive(
        problem,
        partition,
        grids,
        config,
        init_guesses,
        reference,
        (Method.SWR_CLASSICAL, Method.SWR_ROBIN),
        start,
        bounds=bounds,
    )
