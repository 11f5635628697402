"""Experiment execution: reference setup, metrics, CSV and manifest files.

The CSV schema is fixed: header ``iteration,err_max,err_if_1,...,err_if_K``
plus a trailing ``bound`` column when the convergence envelope applies
(diffusion model, Dirichlet-Neumann sweep, middle-outward arrangement,
theta = 1/2). Floats are written as their shortest round-trip decimal, so
a rerun of the same spec reproduces the file byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..bounds import heat_bound_equal, heat_bound_even, heat_bound_unequal
from ..errors import InconsistentSpecs, ValidationError
from ..grids import Partition1D, make_partition
from ..methods import Arrangement, IterationHistory, Method, WrConfig, guess_grids, make_run_grids, wr_run
from ..methods.workspace import _PlanCache, resolve_reference, snap_ygrid, trace_distance
from . import presets
from .spec import ExperimentSpec

__all__ = [
    "ErrorReport",
    "ComparisonRow",
    "ComparisonTable",
    "run_experiment",
    "interface_error",
    "compare_methods",
]

# perfbench/workloads.py replays its runs through this table, so it stays.
_RUNNERS = dict.fromkeys(Method, wr_run)


@dataclass(frozen=True)
class ErrorReport:
    """Per-iteration interface errors of one run, CSV-ready.

    ``errors[k][i]`` is the interface-``i+1`` error after iteration
    ``k+1`` and ``max_errors[k]`` the maximum over interfaces. ``bound``
    holds the envelope overlay (initial error times the iteration-k
    envelope) when the run qualifies for one, else None. ``converged_at``
    is the first 1-based iteration at or under the tolerance.
    """

    errors: tuple[tuple[float, ...], ...]
    max_errors: tuple[float, ...]
    bound: tuple[float, ...] | None
    converged_at: int | None
    initial_error: float | None
    csv_text: str

    def __post_init__(self):
        if len(self.errors) != len(self.max_errors):
            raise ValidationError("error rows and maxima disagree in length")
        widths = {len(row) for row in self.errors}
        if len(widths) > 1:
            raise ValidationError("error rows disagree on the interface count")
        if self.bound is not None and len(self.bound) != len(self.max_errors):
            raise ValidationError("bound overlay and error rows disagree in length")

    @property
    def iterations(self) -> int:
        return len(self.max_errors)


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_text(
    errors: tuple[tuple[float, ...], ...],
    max_errors: tuple[float, ...],
    bound: tuple[float, ...] | None,
) -> str:
    n_if = len(errors[0]) if errors else 0
    cols = ["iteration", "err_max"] + [f"err_if_{i}" for i in range(1, n_if + 1)]
    if bound is not None:
        cols.append("bound")
    lines = [",".join(cols)]
    for k, row in enumerate(errors, start=1):
        cells = [str(k), _fmt(max_errors[k - 1])] + [_fmt(e) for e in row]
        if bound is not None:
            cells.append(_fmt(bound[k - 1]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _make_report(
    errors,
    max_errors,
    bound,
    converged_at,
    initial_error,
) -> ErrorReport:
    return ErrorReport(
        errors=tuple(tuple(float(e) for e in row) for row in errors),
        max_errors=tuple(float(e) for e in max_errors),
        bound=None if bound is None else tuple(float(b) for b in bound),
        converged_at=converged_at,
        initial_error=None if initial_error is None else float(initial_error),
        csv_text=_csv_text(errors, max_errors, bound),
    )


# ---------------------------------------------------------------------------
# problem and grid construction


def _setup(spec: ExperimentSpec):
    problem = presets.build_problem(spec)
    partition = make_partition(spec.partition)
    grids = make_run_grids(
        partition,
        spec.dx,
        spec.T,
        spec.dt if isinstance(spec.dt, float) else list(spec.dt),
        dy=spec.dy,
    )
    ygrid = snap_ygrid(spec.y_interval, spec.dy) if spec.model == "wave2d" else None
    return problem, partition, grids, ygrid


def _initial_error(guesses, reference) -> float:
    """Max-abs distance of the starting traces to the reference traces.

    The same :func:`trace_distance` the per-iteration monitor applies, so
    iteration-k errors are directly comparable with this one.
    """
    return max(trace_distance(guesses, reference))


# ---------------------------------------------------------------------------
# convergence envelope overlay


def _bound_fn(spec: ExperimentSpec, partition: Partition1D):
    """The iteration -> envelope map for qualifying runs, else None.

    The envelope overlay is only meaningful for the configuration the
    theory covers: diffusion, Dirichlet-Neumann sweep, middle-outward
    arrangement, theta exactly 1/2. Subdomain counts outside a family's
    parity are routed to the matching variant.
    """
    cfg = spec.config
    if (
        spec.model != "heat1d"
        or cfg.method is not Method.DNWR
        or cfg.arrangement is not Arrangement.A3
        or cfg.theta_resolved != 0.5
    ):
        return None
    n = partition.n_subdomains
    widths = partition.widths
    h = float(widths[0])
    if n % 2 == 1 and n >= 3:
        if all(abs(w - h) <= 1e-12 * max(1.0, h) for w in widths):
            return lambda k: heat_bound_equal(n, h, spec.nu, spec.T, k)
        m = (n - 1) // 2
        return lambda k: heat_bound_unequal(m, widths, spec.nu, spec.T, k)
    if n % 2 == 0 and n >= 4:
        m = (n - 2) // 2
        return lambda k: heat_bound_even(m, widths, spec.nu, spec.T, k)
    return None


# ---------------------------------------------------------------------------
# execution


def _execute(spec: ExperimentSpec, reference=None):
    """Run one spec; returns (history, report, derived-info dict)."""
    problem, partition, grids, ygrid = _setup(spec)
    cfg = spec.config
    monitor_grids = guess_grids(partition, grids, cfg)
    guesses = presets.build_guesses(spec.guess, monitor_grids, ygrid)
    mode = "zero" if spec.zero_data else "auto"
    if reference is None:
        reference, _ = resolve_reference(
            problem, partition, grids, mode, monitor_grids, ygrid
        )

    history = wr_run(problem, partition, grids, cfg, guesses, reference=reference)
    err0 = _initial_error(history.initial, reference)

    bound_fn = _bound_fn(spec, partition)
    bound = None
    if bound_fn is not None:
        bound = tuple(bound_fn(k) * err0 for k in range(1, history.iterations + 1))
    report = _make_report(
        history.errors, history.max_errors, bound, history.converged_at, err0
    )
    info = {
        "reference": mode,
        "initial_error": err0,
        "clipped": not all(tg.uniform for tg in grids.tgrids),
        "ygrid": ygrid,
        "bound_overlay": bound is not None,
    }
    return history, report, info


def _manifest_text(spec: ExperimentSpec, report: ErrorReport, info: dict) -> str:
    """Deterministic echo of the resolved spec plus derived run facts."""
    lines = [f"# resolved run manifest: {spec.label}"]

    def put(key, value):
        lines.append(f"{key} = {value}")

    put("model", spec.model)
    put("interval", ", ".join(_fmt(v) for v in spec.interval))
    put("partition", ", ".join(_fmt(v) for v in spec.partition))
    put("dx", _fmt(spec.dx))
    put("dt", ", ".join(_fmt(v) for v in spec.dt_list()))
    put("T", _fmt(spec.T))
    if spec.nu is not None:
        put("nu", _fmt(spec.nu))
    if spec.c is not None:
        put("c", ", ".join(_fmt(v) for v in spec.c_list()))
    if spec.model == "wave2d":
        put("y_interval", ", ".join(_fmt(v) for v in spec.y_interval))
        put("dy_requested", _fmt(spec.dy))
        put("dy_actual", _fmt(info["ygrid"].dx))
        put("bottom", spec.bottom)
        put("top", spec.top)
    put("initial", spec.initial)
    if spec.model != "heat1d":
        put("initial_rate", spec.initial_rate)
    put("left", spec.left)
    put("right", spec.right)
    put("source", spec.source)
    cfg = spec.config
    put("method", cfg.method.value)
    put("arrangement", cfg.arrangement.value)
    put("theta", _fmt(cfg.theta_resolved))
    put("tol", _fmt(cfg.tol))
    put("max_iters", str(cfg.max_iters))
    if cfg.method is Method.SWR_CLASSICAL:
        put("overlap_cells", str(cfg.overlap_cells))
    if cfg.method is Method.SWR_ROBIN:
        put("robin_p", _fmt(cfg.robin_p))
    put("guess", spec.guess)
    put("reference", info["reference"])
    put("clipped_final_steps", "yes" if info["clipped"] else "no")
    put("initial_error", _fmt(report.initial_error))
    put("iterations", str(report.iterations))
    put(
        "converged_at",
        "none" if report.converged_at is None else str(report.converged_at),
    )
    put("bound_overlay", "yes" if info["bound_overlay"] else "no")
    if spec.label == "fig_heat_5sub_T8":
        lines.append(
            "# note: T=8 reuses the T=2 grid spacings; the source only states them for T=2"
        )
    return "\n".join(lines) + "\n"


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None) -> ErrorReport:
    """Execute one spec and write its CSV and manifest files.

    Files land in ``out_dir`` (or the spec's ``out``) as
    ``<label>.csv`` and ``<label>_manifest.txt``. The run is fully
    deterministic: rerunning the same spec reproduces the CSV byte for
    byte, seeded random guesses included. The directory is made before
    the run, so one that cannot be made fails at once.
    """
    directory = out_dir if out_dir is not None else spec.out
    os.makedirs(directory, exist_ok=True)
    _, report, info = _execute(spec)
    csv_path = os.path.join(directory, f"{spec.label}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.csv_text)
    manifest_path = os.path.join(directory, f"{spec.label}_manifest.txt")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_manifest_text(spec, report, info))
    return report


# ---------------------------------------------------------------------------
# post-hoc error measurement


def interface_error(history: IterationHistory, reference) -> ErrorReport:
    """Re-measure a run's interface errors against given reference traces.

    ``reference`` holds one trace per interface. Each stored trace is
    projected onto its reference trace's time grid and compared in the
    max norm over all nodes (time and, in 2D, y); every row shares one
    projection plan per pair of grids.
    """
    cache = _PlanCache()
    rows = [
        trace_distance(traces, reference, cache)
        for traces in (history.initial, *history.dirichlet)
    ]
    errors = tuple(rows[1:])
    max_errors = tuple(max(row) for row in errors)
    tol = history.config.tol
    converged_at = next(
        (k for k, e in enumerate(max_errors, start=1) if e <= tol), None
    )
    return _make_report(errors, max_errors, None, converged_at, max(rows[0]))


# ---------------------------------------------------------------------------
# method comparison


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    method: str
    iterations: int | None
    final_error: float


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    csv_text: str


def _shared_part(spec: ExperimentSpec) -> ExperimentSpec:
    return replace(spec, config=WrConfig(), label="", out="")


def compare_methods(
    specs: list[ExperimentSpec], out_dir: str | None = None
) -> ComparisonTable:
    """Run several method variants of one experiment and tabulate them.

    All specs must agree on everything except the method configuration
    (and label); otherwise :class:`InconsistentSpecs`. The reference is
    computed once and shared, so iteration counts are comparable. One
    CSV named ``compare_<first label>.csv`` is written, into a directory
    made before the first run.
    """
    if not specs:
        raise InconsistentSpecs("compare_methods needs at least one spec")
    base = _shared_part(specs[0])
    for other in specs[1:]:
        if _shared_part(other) != base:
            raise InconsistentSpecs(
                "specs passed to compare_methods differ beyond their method fields"
            )
    directory = out_dir if out_dir is not None else specs[0].out
    os.makedirs(directory, exist_ok=True)

    reference = None  # the first run resolves it, the others reuse it
    rows = []
    for spec in specs:
        history, _, _ = _execute(spec, reference=reference)
        reference = history.reference
        rows.append(
            ComparisonRow(
                label=spec.label,
                method=spec.config.method.value,
                iterations=history.converged_at,
                final_error=float(history.max_errors[-1]),
            )
        )

    lines = ["label,method,iterations,converged,final_err"]
    for row in rows:
        iters = "" if row.iterations is None else str(row.iterations)
        conv = "yes" if row.iterations is not None else "no"
        lines.append(f"{row.label},{row.method},{iters},{conv},{_fmt(row.final_error)}")
    csv_text = "\n".join(lines) + "\n"
    path = os.path.join(directory, f"compare_{specs[0].label}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text)
    return ComparisonTable(rows=tuple(rows), csv_text=csv_text)
