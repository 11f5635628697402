"""The Neumann-Neumann waveform-relaxation driver."""

from __future__ import annotations

from ..grids import InterfaceTrace, Partition1D, TraceKind
from .config import Method, WrConfig
from .workspace import Output, RunGrids, _drive, _solve_all

__all__ = ["nnwr_run"]


def nnwr_run(
    problem,
    partition: Partition1D,
    grids: RunGrids,
    config: WrConfig,
    init_guesses,
    reference="auto",
):
    """Iterate the Neumann-Neumann two-stage correction.

    Stage one solves every subdomain with Dirichlet data from the current
    interface traces (all solves independent). The mismatch left over is
    the jump of the transmitted flux across each interface: the
    impedance-weighted derivative c du/dx for wave models (the plain
    derivative for heat, whose diffusivity is shared). Stage two solves,
    again independently on every subdomain, a correction with zero
    initial data, zero source, zero physical boundary data, and the flux
    jumps as Neumann data, scaled back by the receiving subdomain's own
    speed (and with the sign flipped on left sides so the jump acts
    outward). The traces are then corrected by theta times the sum of
    the two correction histories meeting at each interface; theta
    defaults to 1/4, which makes the two-subdomain iteration exact.

    Arguments and the returned history are as in
    :func:`~wrkit.methods.dnwr_run`.
    """

    def start(spaces, ygrid, cache, trace_grids, guesses):
        theta = config.theta_resolved

        def neumann(trace: InterfaceTrace, flip: bool, space) -> InterfaceTrace:
            projected = cache.project(trace, space.tgrid)
            scale = (-1.0 if flip else 1.0) / space.impedance
            if scale == 1.0:
                return projected
            return InterfaceTrace(TraceKind.NEUMANN, projected.grid, scale * projected.samples)

        n = partition.n_subdomains
        x = [None] + [partition.interface_position(i) for i in range(1, n)]
        fluxes = {s: {} for s in spaces}
        traces = {s: {} for s in spaces}
        for s in spaces:
            if s > 1:
                fluxes[s]["left"] = Output(TraceKind.NEUMANN, "left")
                traces[s]["left"] = Output(TraceKind.DIRICHLET, x[s - 1])
            if s < n:
                fluxes[s]["right"] = Output(TraceKind.NEUMANN, "right")
                traces[s]["right"] = Output(TraceKind.DIRICHLET, x[s])

        def sweep(g):
            flux = _solve_all(
                spaces, lambda s, i, _: cache.project(g[i - 1], spaces[s].tgrid), fluxes
            )

            jumps = []
            for i in range(1, n):
                zl = spaces[i].impedance
                zr = spaces[i + 1].impedance
                from_left = cache.project(flux[i]["right"], trace_grids[i - 1])
                from_right = cache.project(flux[i + 1]["left"], trace_grids[i - 1])
                jumps.append(
                    InterfaceTrace(
                        TraceKind.NEUMANN,
                        trace_grids[i - 1],
                        zl * from_left.samples - zr * from_right.samples,
                    )
                )

            psi = _solve_all(
                spaces,
                lambda s, i, _: neumann(jumps[i - 1], flip=i < s, space=spaces[s]),
                traces,
                homogeneous=True,
            )

            new_g = []
            for i in range(1, n):
                psi_left = cache.project(psi[i]["right"], trace_grids[i - 1])
                psi_right = cache.project(psi[i + 1]["left"], trace_grids[i - 1])
                updated = g[i - 1].samples - theta * (psi_left.samples + psi_right.samples)
                new_g.append(g[i - 1].with_samples(updated))
            return new_g, new_g

        return guesses, sweep, trace_grids, guesses

    return _drive(
        problem, partition, grids, config, init_guesses, reference, (Method.NNWR,), start
    )
