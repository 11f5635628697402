"""Waveform-relaxation drivers and their shared configuration."""

from ..grids import Partition1D
from . import dnwr, nnwr, swr
from .config import IterationHistory, Method, WrConfig, relax_update
from .schedule import Arrangement, StageTask, arrangement_schedule, producer_map
from .workspace import RunGrids, _drive, guess_grids, make_run_grids, traces_from_field

__all__ = [
    "Arrangement",
    "StageTask",
    "arrangement_schedule",
    "producer_map",
    "Method",
    "WrConfig",
    "IterationHistory",
    "relax_update",
    "RunGrids",
    "make_run_grids",
    "guess_grids",
    "traces_from_field",
    "wr_run",
]

# Each method's plan: (problem, partition, grids, config) -> (start, bounds).
_PLANS = {
    Method.DNWR: dnwr.plan,
    Method.NNWR: nnwr.plan,
    Method.SWR_CLASSICAL: swr.plan,
    Method.SWR_ROBIN: swr.plan,
}


def wr_run(
    problem,
    partition: Partition1D,
    grids: RunGrids,
    config: WrConfig,
    init_guesses,
    reference="auto",
):
    """Iterate the method that ``config.method`` names until convergence or max_iters.

    ``init_guesses`` supplies one Dirichlet trace per interface on the
    grids of :func:`guess_grids`; ``reference`` selects the error metric
    ("auto", "zero", explicit traces, or None; see
    :func:`~wrkit.methods.workspace.resolve_reference`). At least one
    iteration is always performed. Returns the iteration history.
    """
    start, bounds = _PLANS[config.method](problem, partition, grids, config)
    return _drive(problem, partition, grids, config, init_guesses, reference, start, bounds)
