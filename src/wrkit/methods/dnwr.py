"""The Dirichlet-Neumann waveform-relaxation driver."""

from __future__ import annotations

from ..grids import Partition1D, TraceKind
from .config import Method, WrConfig, relax_update
from .schedule import Role, arrangement_schedule, producer_map
from .workspace import Output, RunGrids, _drive, exchange_scale

__all__ = ["dnwr_run"]


def dnwr_run(
    problem,
    partition: Partition1D,
    grids: RunGrids,
    config: WrConfig,
    init_guesses,
    reference="auto",
):
    """Iterate the Dirichlet-Neumann sweep until convergence or max_iters.

    Each iteration walks the configured arrangement's schedule: a task
    with a Dirichlet role at an interface consumes the trace from the
    previous iteration, while a Neumann role consumes the flux that the
    neighbor solved earlier in the same iteration returned. After the
    sweep, the trace at each interface is refreshed from the Dirichlet
    trace that the subdomain which solved with a Neumann condition there
    returned, relaxed against the old trace with weight theta.

    ``init_guesses`` supplies one Dirichlet trace per interface on the
    grids of :func:`~wrkit.methods.guess_grids`; ``reference`` selects
    the error metric ("auto", "zero", explicit traces, or None; see
    :func:`~wrkit.methods.workspace.resolve_reference`). At least one
    iteration is always performed. Returns the iteration history.
    """
    n = partition.n_subdomains

    def start(spaces, ygrid, cache, trace_grids, guesses):
        schedule = arrangement_schedule(n, config.arrangement)
        producer = producer_map(schedule)
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
            read: dict[int, dict] = {}

            def boundary(task, side):
                s = task.subdomain
                space = spaces[s]
                if side == "left":
                    if s == 1:
                        return None
                    iface, neighbor, role = s - 1, s - 1, task.left
                else:
                    if s == n:
                        return None
                    iface, neighbor, role = s, s + 1, task.right
                if role is Role.DIRICHLET:
                    return cache.project(g[iface - 1], space.tgrid)
                raw = read[neighbor][iface]
                scale = exchange_scale(spaces[neighbor], space)
                if scale != 1.0:
                    raw = raw.with_samples(raw.samples * scale)
                return cache.project(raw, space.tgrid)

            for stage in schedule.stages:
                for task in stage:
                    s = task.subdomain
                    traces = spaces[s].solve(
                        boundary(task, "left"), boundary(task, "right"), reads[s].values()
                    )
                    read[s] = dict(zip(reads[s], traces))

            new_g = [relax_update(theta, read[producer[i]][i], g[i - 1]) for i in range(1, n)]
            return new_g, new_g

        return guesses, sweep, trace_grids, guesses

    return _drive(
        problem, partition, grids, config, init_guesses, reference, (Method.DNWR,), start
    )
