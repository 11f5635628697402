"""Run configuration, the relaxation update, and iteration histories."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import IncompatibleGrids, ValidationError
from ..grids import InterfaceTrace, grids_equal
from .schedule import Arrangement

__all__ = ["Method", "WrConfig", "relax_update", "IterationHistory"]


class Method(enum.Enum):
    """Which waveform-relaxation iteration a run uses."""

    DNWR = "dnwr"  # Dirichlet-Neumann sweep with relaxation
    NNWR = "nnwr"  # Neumann-Neumann two-stage correction
    SWR_CLASSICAL = "swr_classical"  # overlapping Schwarz, Dirichlet transmission
    SWR_ROBIN = "swr_robin"  # non-overlapping Schwarz, Robin transmission


_DEFAULT_THETA = {
    Method.DNWR: 0.5,
    Method.NNWR: 0.25,
    Method.SWR_CLASSICAL: 1.0,
    Method.SWR_ROBIN: 1.0,
}


@dataclass(frozen=True)
class WrConfig:
    """Knobs shared by every waveform-relaxation driver.

    ``theta=None`` picks the method's customary default: 1/2 for the
    Dirichlet-Neumann sweep and 1/4 for the Neumann-Neumann variant. The
    Schwarz methods exchange data without relaxing, so theta is ignored
    there. ``overlap_cells`` counts lattice cells each subdomain extends
    into its neighbors (classical Schwarz only; 1 cell per side gives a
    total overlap of two cells between adjacent subdomains). ``robin_p``
    is the transmission coefficient of Robin Schwarz.
    """

    method: Method = Method.DNWR
    theta: float | None = None
    max_iters: int = 50
    tol: float = 1e-10
    arrangement: Arrangement = Arrangement.A3
    overlap_cells: int = 1
    robin_p: float | None = None

    def __post_init__(self):
        if self.theta is not None and not 0.0 < self.theta <= 1.0:
            raise ValidationError(f"theta must lie in (0, 1], got {self.theta!r}")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValidationError("tol must be positive")
        if self.method is Method.SWR_CLASSICAL and self.overlap_cells < 1:
            raise ValidationError("classical Schwarz needs overlap_cells >= 1")
        if self.method is Method.SWR_ROBIN and (self.robin_p is None or self.robin_p <= 0):
            raise ValidationError("Robin Schwarz needs robin_p > 0")

    @property
    def theta_resolved(self) -> float:
        """The relaxation weight actually used by the configured method."""
        if self.theta is not None:
            return self.theta
        return _DEFAULT_THETA[self.method]


def relax_update(theta: float, new_trace: InterfaceTrace, old_trace: InterfaceTrace) -> InterfaceTrace:
    """Convex trace update ``theta * new + (1 - theta) * old``.

    Both traces must carry the same kind of data on the same time grid.
    With ``theta=1`` the new trace is returned as-is (unrelaxed update).
    """
    if new_trace.kind is not old_trace.kind or new_trace.robin_p != old_trace.robin_p:
        raise IncompatibleGrids("relaxation cannot mix traces of different kinds")
    if (
        not grids_equal(new_trace.grid, old_trace.grid)
        or new_trace.samples.shape != old_trace.samples.shape
    ):
        raise IncompatibleGrids("relaxation needs both traces on one grid")
    if theta == 1.0:
        return new_trace
    return new_trace.with_samples(
        theta * new_trace.samples + (1.0 - theta) * old_trace.samples
    )


@dataclass(frozen=True)
class IterationHistory:
    """Everything one waveform-relaxation run recorded.

    All per-iteration containers have one entry per performed iteration;
    ``dirichlet[k][i]`` is the interface-``i+1`` solution trace after
    iteration ``k+1`` (after relaxation, where the method relaxes).
    ``errors[k][i]`` is the monitored interface error
    and ``max_errors[k]`` its maximum over interfaces; ``metric`` says
    what the numbers mean: distance to ``reference``, or the relative
    size of the latest update when the run had no reference.
    ``converged_at`` is the first 1-based iteration whose max error fell
    to the configured tolerance, or None if none did.
    """

    config: WrConfig
    initial: tuple[InterfaceTrace, ...]
    dirichlet: tuple[tuple[InterfaceTrace, ...], ...]
    errors: tuple[tuple[float, ...], ...]
    max_errors: tuple[float, ...]
    converged_at: int | None
    metric: str
    reference: tuple[InterfaceTrace, ...] | None

    @property
    def iterations(self) -> int:
        return len(self.max_errors)

    @property
    def final_traces(self) -> tuple[InterfaceTrace, ...]:
        return self.dirichlet[-1]
