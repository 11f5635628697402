"""The Dirichlet-Neumann waveform-relaxation driver."""

from __future__ import annotations

from ..grids import Partition1D
from .config import Method, WrConfig, relax_update
from .schedule import Role, arrangement_schedule, producer_map
from .workspace import RunGrids, _drive, exchange_scale

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
    previous iteration, while a Neumann role consumes the flux extracted
    from the neighbor solved earlier in the same iteration. After the
    sweep, the trace at each interface is refreshed from the field of
    the subdomain that solved with a Neumann condition there, relaxed
    against the old trace with weight theta.

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
        g = guesses

        def sweep():
            nonlocal g
            fields: dict[int, object] = {}

            def boundary(task, side):
                s = task.subdomain
                space = spaces[s]
                if side == "left":
                    if s == 1:
                        return None
                    iface, neighbor, their_side, role = s - 1, s - 1, "right", task.left
                else:
                    if s == n:
                        return None
                    iface, neighbor, their_side, role = s, s + 1, "left", task.right
                if role is Role.DIRICHLET:
                    return cache.project(g[iface - 1], space.tgrid)
                raw = spaces[neighbor].flux(fields[neighbor], their_side)
                scale = exchange_scale(spaces[neighbor], space)
                if scale != 1.0:
                    raw = raw.with_samples(raw.samples * scale)
                return cache.project(raw, space.tgrid)

            for stage in schedule.stages:
                solved = {
                    task.subdomain: spaces[task.subdomain].solve(
                        boundary(task, "left"), boundary(task, "right")
                    )
                    for task in stage
                }
                fields.update(solved)

            new_g = []
            for i in range(1, partition.n_interfaces + 1):
                p = producer[i]
                side = "left" if p == i + 1 else "right"
                fresh = spaces[p].dirichlet_trace(fields[p], side)
                new_g.append(relax_update(theta, fresh, g[i - 1]))
            g = new_g
            return g

        return sweep, trace_grids, g

    return _drive(
        problem, partition, grids, config, init_guesses, reference, (Method.DNWR,), start
    )
