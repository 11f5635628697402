"""The Dirichlet-Neumann waveform-relaxation sweep."""

from __future__ import annotations

from ..grids import Partition1D, TraceKind
from .config import WrConfig, relax_update
from .schedule import arrangement_schedule, producer_map
from .workspace import Output, RunGrids, _solve_all, exchange_scale

__all__ = ["plan"]


def plan(problem, partition: Partition1D, grids: RunGrids, config: WrConfig):
    """``(start, None)`` of the Dirichlet-Neumann sweep, on the partition's own subdomains.

    Each iteration solves the subdomains in the stage order of the
    configured arrangement: a subdomain with a Dirichlet side at an
    interface takes the trace from the previous iteration, while one with
    a Neumann side takes the flux that the neighbor solved earlier in the
    same iteration returned. After the sweep, the trace at each interface
    is refreshed from the Dirichlet trace that the subdomain which solved
    with a Neumann condition there returned, relaxed against the old
    trace with weight theta.
    """
    n = partition.n_subdomains

    def start(spaces, ygrid, cache, trace_grids, guesses):
        stages = arrangement_schedule(n, config.arrangement)
        producer = producer_map(stages)
        ordered = {s: spaces[s] for stage in stages for s, _, _ in stage}
        theta = config.theta_resolved

        # What each subdomain's solve returns, by interface: the producer's
        # Dirichlet trace, and the flux its neighbour there takes as data.
        reads = {s: {} for s in spaces}
        for i in range(1, n):
            x = partition.interface_position(i)
            p = producer[i]
            reads[p][i] = Output(TraceKind.DIRICHLET, x)
            other, side = (i, "right") if p == i + 1 else (i + 1, "left")
            reads[other][i] = Output(TraceKind.NEUMANN, side)

        def sweep(g):
            def inner(s, i, traces):
                space = spaces[s]
                if producer[i] != s:
                    return cache.project(g[i - 1], space.tgrid)
                neighbor = i if s == i + 1 else i + 1
                raw = traces[neighbor][i]
                scale = exchange_scale(spaces[neighbor], space)
                if scale != 1.0:
                    raw = raw.with_samples(raw.samples * scale)
                return cache.project(raw, space.tgrid)

            read = _solve_all(ordered, inner, reads)
            new_g = [relax_update(theta, read[producer[i]][i], g[i - 1]) for i in range(1, n)]
            return new_g, new_g

        return guesses, sweep, trace_grids, guesses

    return start, None
