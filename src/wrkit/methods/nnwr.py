"""The Neumann-Neumann waveform-relaxation sweep."""

from __future__ import annotations

import numpy as np

from ..grids import InterfaceTrace, Partition1D, TraceKind
from .config import WrConfig
from .workspace import Output, RunGrids, _solve_all

__all__ = ["plan"]


def plan(problem, partition: Partition1D, grids: RunGrids, config: WrConfig):
    """``(start, None)`` of the Neumann-Neumann correction, on the partition's own subdomains.

    Stage one solves every subdomain with Dirichlet data from the current
    interface traces (all solves independent). The mismatch left over is
    the jump of the transmitted flux c du/dx across each interface (see
    :class:`~wrkit.methods.workspace.Output`). Stage two solves, again
    independently on every subdomain, a correction with zero initial
    data, zero source, zero physical boundary data, and the flux jumps as
    Neumann data, with the sign flipped on left sides so the jump acts
    outward; the solve divides them by the receiving subdomain's own
    speed. The traces are then corrected by theta times the sum of the
    two correction histories meeting at each interface; theta defaults
    to 1/4, which makes the two-subdomain iteration exact.
    """

    def start(spaces, ygrid, cache, trace_grids, guesses):
        theta = config.theta_resolved
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

        def meeting(read, i):
            """What subdomains i and i + 1 returned at interface i, on its grid: the left one's first."""
            grid = trace_grids[i - 1]
            return cache.project(read[i]["right"], grid).samples, cache.project(read[i + 1]["left"], grid).samples

        def sweep(g):
            flux = _solve_all(spaces, cache, lambda s, i, _: g[i - 1], fluxes)
            jumps = [np.subtract(*meeting(flux, i)) for i in range(1, n)]

            def inner(s, i, _):
                return InterfaceTrace(TraceKind.NEUMANN, trace_grids[i - 1], -jumps[i - 1] if i < s else jumps[i - 1])

            psi = _solve_all(spaces, cache, inner, traces, homogeneous=True)
            new_g = [gi.with_samples(gi.samples - theta * np.add(*meeting(psi, i))) for i, gi in enumerate(g, start=1)]
            return new_g, new_g

        return guesses, sweep, trace_grids, guesses

    return start, None
