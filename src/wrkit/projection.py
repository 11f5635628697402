"""Moving interface traces between time grids.

Subdomains may advance with different time steps, so transmission data
recorded on one grid has to be re-sampled on another before it can be
consumed. Re-sampling is piecewise-linear interpolation in time; the
interpolation weights for a (source, destination) pair are precomputed
once into a :class:`ProjectionPlan` by one vectorized bracketing search
(``numpy.searchsorted``) over the source nodes, and applying a plan is a
vectorized gather.

Linear interpolation keeps values inside the convex hull of neighbouring
samples (no overshoot) and reproduces linear-in-time data exactly, which
is what makes coarse->fine->coarse round trips of linear traces lossless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleGrids, WindowMismatch
from .grids import InterfaceTrace, TimeGrid, grids_equal

__all__ = ["ProjectionPlan", "build_plan", "project_trace"]

#: Windows must agree to this tolerance (relative to max(1, T)).
WINDOW_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class ProjectionPlan:
    """Precomputed linear-interpolation weights from ``src`` to ``dst``.

    For destination node ``k`` the value is
    ``w0[k] * samples[idx0[k]] + w1[k] * samples[idx1[k]]``; weights lie
    in [0, 1] and sum to 1 per node, and the bracketing indices are
    nondecreasing in ``k``.
    """

    src: TimeGrid
    dst: TimeGrid
    idx0: np.ndarray
    idx1: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    identity: bool

    def __post_init__(self):
        for name in ("idx0", "idx1", "w0", "w1"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_plan(src: TimeGrid, dst: TimeGrid) -> ProjectionPlan:
    """Plan the projection of traces from grid ``src`` onto grid ``dst``.

    Raises :class:`WindowMismatch` when the two grids cover different
    windows [0, T]; projection never extrapolates.
    """
    if abs(src.T - dst.T) > WINDOW_RTOL * max(1.0, abs(src.T), abs(dst.T)):
        raise WindowMismatch(
            f"source window T={src.T!r} differs from destination T={dst.T!r}"
        )

    ts = src.times
    td = dst.times
    # The source interval [ts[j], ts[j+1]] that brackets each destination
    # node: the last one starting strictly before it (the first at t=0).
    idx0 = np.clip(np.searchsorted(ts, td, "left") - 1, 0, len(ts) - 2)
    theta = (td - ts[idx0]) / (ts[idx0 + 1] - ts[idx0])
    # Clamp away the float fuzz at shared endpoints.
    w0 = 1.0 - np.clip(theta, 0.0, 1.0)
    return ProjectionPlan(
        src=src,
        dst=dst,
        idx0=idx0,
        idx1=np.minimum(idx0 + 1, len(ts) - 1),
        w0=w0,
        w1=1.0 - w0,
        identity=grids_equal(src, dst),
    )


def project_trace(trace: InterfaceTrace, plan: ProjectionPlan) -> InterfaceTrace:
    """Re-sample ``trace`` on the plan's destination grid.

    The trace must live on the plan's source grid. When the grids are
    identical the original (immutable) trace is returned as-is.
    """
    if not grids_equal(trace.grid, plan.src):
        raise IncompatibleGrids("trace does not live on the plan's source grid")
    if plan.identity:
        return trace

    samples = trace.samples
    col = (-1,) + (1,) * (samples.ndim - 1)  # weights per row, broadcast over y in 2D
    out = plan.w0.reshape(col) * samples[plan.idx0] + plan.w1.reshape(col) * samples[plan.idx1]
    return InterfaceTrace(trace.kind, plan.dst, out, robin_p=trace.robin_p)
