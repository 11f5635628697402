"""Correctness checks the benchmark applies to every replay.

A replay fails when a driver misses its tolerance, when the reference
interface traces drift from the digest stored in ``digest.json``, or,
on the envelope workload, when a sweep's error exceeds the closed-form
envelope times the initial error. Once per run, a workload with
fixed-point data also has its converged interface traces checked
against their digest and against the monodomain solve.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from wrkit.harness import interface_error

DIGEST_PATH = Path(__file__).resolve().parent / "digest.json"

# Allowed drift of a digest entry, relative to the trace's largest sample
# (sums: relative to the stored sum). Roundoff from reordered arithmetic
# stays far below this; a change of discretization moves the traces by
# O(dx^2) and fails it.
DIGEST_RTOL = 1e-9

# Converged traces stop within the update tolerance (1e-8) of the fixed
# point, and seeds differ there by about 5e-9 of the largest sample.
FIXED_POINT_RTOL = 1e-6

# The fixed point on non-matching time grids misses the monodomain solve
# by its discretization error: 3.5e-4 (full grids) and 1.4e-3 (smoke
# grids) of the largest sample. A wrong projection weight or impedance
# factor moves the fixed point itself.
DISCRETIZATION_RTOL = 5e-3

_ROWS = 9
_COLS = 5


def _picks(n: int, count: int) -> list[int]:
    return sorted({int(round(v)) for v in np.linspace(0, n - 1, count)})


def trace_digest(samples: np.ndarray) -> dict:
    """A few fixed samples and sums of one reference trace."""
    a = np.asarray(samples, dtype=float)
    rows = _picks(a.shape[0], _ROWS)
    picked = a[rows] if a.ndim == 1 else a[np.ix_(rows, _picks(a.shape[1], _COLS))]
    return {
        "shape": list(a.shape),
        "samples": [float(v) for v in picked.ravel()],
        "max_abs": float(np.max(np.abs(a))),
        "abs_sum": float(np.sum(np.abs(a))),
        "sq_sum": float(np.sum(a * a)),
    }


def digest_key(workload: str, smoke: bool, fixed_point: bool = False) -> str:
    key = f"{workload}.fixed_point" if fixed_point else workload
    return f"{key}@smoke" if smoke else key


def load_digests() -> dict:
    return json.loads(DIGEST_PATH.read_text(encoding="utf-8"))


def digest_mismatches(traces, stored: list[dict], rtol: float = DIGEST_RTOL) -> list[str]:
    """Why the traces differ from their stored digests (empty if not)."""
    if len(traces) != len(stored):
        return [f"{len(traces)} traces, digest has {len(stored)}"]
    problems = []
    for i, (trace, want) in enumerate(zip(traces, stored), start=1):
        got = trace_digest(trace.samples)
        if got["shape"] != want["shape"]:
            problems.append(f"interface {i}: shape {got['shape']} != {want['shape']}")
            continue
        scale = max(want["max_abs"], np.finfo(float).tiny)
        drift = max(abs(g - w) for g, w in zip(got["samples"], want["samples"])) / scale
        for key in ("max_abs", "abs_sum", "sq_sum"):
            drift = max(drift, abs(got[key] - want[key]) / max(abs(want[key]), np.finfo(float).tiny))
        if drift > rtol:
            problems.append(f"interface {i}: relative drift {drift:.3e} > {rtol:g}")
    return problems


def replay_failures(histories, reference, stored, overlay) -> list[str]:
    """Every failed check of one replay, as readable lines."""
    problems = []
    for method, history in histories:
        if history.converged_at is None:
            problems.append(
                f"{method} did not reach tol {history.config.tol:g} in "
                f"{history.iterations} sweeps (last error {history.max_errors[-1]:.3e})"
            )
    problems += digest_mismatches(reference, stored)
    if overlay is not None:
        errors = histories[0][1].max_errors
        for k, (err, bound) in enumerate(zip(errors, overlay), start=1):
            if not err <= bound:
                problems.append(f"sweep {k}: error {err:.3e} above the envelope {bound:.3e}")
    return problems


def fixed_point_failures(history, reference, stored) -> list[str]:
    """Every failed check of a fixed-point solve (see ``workloads.fixed_point``)."""
    if history.converged_at is None:
        return [
            f"fixed point: updates still above {history.config.tol:g} after "
            f"{history.iterations} sweeps"
        ]
    final = history.dirichlet[-1]
    problems = [f"fixed point: {line}" for line in digest_mismatches(final, stored, FIXED_POINT_RTOL)]
    errors = interface_error(history, reference).errors[-1]
    for i, (error, ref) in enumerate(zip(errors, reference), start=1):
        gap = error / float(np.max(np.abs(ref.samples)))
        if not gap <= DISCRETIZATION_RTOL:
            problems.append(
                f"fixed point: interface {i} misses the monodomain solve by {gap:.3e} "
                f"of its largest sample (> {DISCRETIZATION_RTOL:g})"
            )
    return problems
