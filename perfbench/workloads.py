"""The benchmark's workloads and their replay through the wrkit harness path.

A workload is one or more parts, solved one after the other in a replay.
A part is one or more config texts that share everything except the
method settings, plus the reason it was chosen. For each part, a replay
runs the path a ``wrkit preset`` or ``wrkit compare`` user goes through:

    load_config -> build_problem -> make_partition / make_run_grids
    -> guess_grids -> presets.build_guesses -> normalize_guesses
    -> resolve_reference(..., "auto") -> dnwr_run / nnwr_run / swr_run

followed, where the run qualifies, by the envelope overlay. Set-up,
driver table and overlay are the harness's own (``wrkit.harness.run``).
The seed only fills the ``guess = random(seed)`` token; the reference
solve does not depend on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from wrkit.harness import build_guesses, load_config
from wrkit.harness.run import _RUNNERS, _bound_fn, _initial_error, _setup
from wrkit.methods import guess_grids
from wrkit.methods.workspace import normalize_guesses, resolve_reference

_HEAT_CHAIN = """\
model = heat1d
interval = 0, 9
partition = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
nu = 1
dx = {dx}
dt = {dt}
T = 2
initial = parabola
left = t2
right = texp
method = dnwr
arrangement = outward
theta = 0.5
tol = 1e-10
max_iters = 80
guess = random({seed})
"""

# Three subdomains: the default (outward) arrangement solves the middle
# one first, then both ends, as the fig_wave_nonmatching preset does.
_WAVE_MISMATCH = """\
model = wave1d
interval = 0, 6
partition = 0, 2, 4, 6
c = 0.25, 2, 0.5
dx = {dx}
dt = {dt}
T = 2
left = t2
right = t3
method = dnwr
theta = 0.5
tol = 1e-08
max_iters = 200
guess = random({seed})
"""

_STRIP = """\
model = wave2d
interval = 0, 1
partition = 0, 0.4, 0.75, 1
c = 1
dx = {dx}
dy = {dy}
dt = {dt}
T = 2
left = t2siny
right = t3ybump
method = {method}
{extra}tol = 1e-06
max_iters = 120
guess = random({seed})
"""


@dataclass(frozen=True)
class Part:
    """One problem of a workload: the config texts that share it, and why."""

    name: str
    why: str
    templates: tuple[str, ...]
    full: dict
    smoke: dict
    envelope: bool = False
    # extra config lines for the fixed-point check (see fixed_point), if any
    fixed_point_data: str = ""

    def configs(self, seed: int, smoke: bool, extra: str = "") -> tuple[str, ...]:
        sizes = self.smoke if smoke else self.full
        return tuple(t.format(seed=seed, **sizes) + extra for t in self.templates)


@dataclass(frozen=True)
class Workload:
    """Parts that one replay sets up and solves one after the other."""

    name: str
    why: str
    parts: tuple[Part, ...]


def _strip_templates() -> tuple[str, ...]:
    return tuple(
        _STRIP.replace("{method}", method).replace(
            "{extra}", "overlap_cells = 1\n" if method == "swr_classical" else ""
        )
        for method in ("dnwr", "nnwr", "swr_classical")
    )


HEAT_CHAIN = Part(
    name="heat_chain",
    why=(
        "nine equal heat subdomains: the implicit heat kernel is ~98% of the solve, "
        "grids match so projection is bypassed, and the heat_bound_equal envelope applies"
    ),
    templates=(_HEAT_CHAIN,),
    full={"dx": "0.02", "dt": "0.004"},
    smoke={"dx": "0.1", "dt": "0.02"},
    envelope=True,
)

WAVE_MISMATCH = Part(
    name="wave_mismatch",
    why=(
        "per-subdomain speeds and steps that do not divide T: the only part where "
        "projection and impedance scaling work; many short sweeps stress the driver loop"
    ),
    templates=(_WAVE_MISMATCH,),
    full={"dx": "0.01", "dt": "0.013, 0.0039, 0.01"},
    smoke={"dx": "0.05", "dt": "0.065, 0.0195, 0.05"},
    # The boundary data travels at most c*T = 1 by T, short of both
    # interfaces, so the timed runs exchange zero traces; a parabola
    # start puts data on the interfaces from t = 0.
    fixed_point_data="initial = parabola\n",
)

STRIP_METHODS = Part(
    name="strip_methods",
    why=(
        "2D strips under DNWR, NNWR and classical SWR on one shared reference: an "
        "array-bound kernel, correction solves, overlapping strips, the largest history"
    ),
    templates=_strip_templates(),
    full={"dx": "0.0125", "dy": "0.04", "dt": "0.01"},
    smoke={"dx": "0.05", "dy": "0.16", "dt": "0.04"},
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chains_1d",
            why=(
                "heat chain then wave mismatch, each on its own reference: the 1D heat and wave "
                "kernels, the envelope, projection, impedance scaling and many short sweeps"
            ),
            parts=(HEAT_CHAIN, WAVE_MISMATCH),
        ),
        Workload(
            name="strip_methods",
            why=STRIP_METHODS.why,
            parts=(STRIP_METHODS,),
        ),
    )
}


@dataclass
class Prepared:
    """Everything the solve needs, built by :func:`set_up`."""

    problem: object
    partition: object
    grids: object
    reference: tuple
    runs: list  # (spec, normalized guesses) per driver


def set_up(texts) -> Prepared:
    """Parse the configs, build problem and grids, guesses and the reference."""
    specs = [load_config(text) for text in texts]
    problem, partition, grids, ygrid = _setup(specs[0])
    runs = []
    for s in specs:
        monitor_grids = guess_grids(partition, grids, s.config)
        guesses = normalize_guesses(
            problem, partition, build_guesses(s.guess, monitor_grids, ygrid), monitor_grids, ygrid
        )
        runs.append((s, guesses))
    monitor_grids = guess_grids(partition, grids, specs[0].config)
    reference, _ = resolve_reference(problem, partition, grids, "auto", monitor_grids, ygrid)
    return Prepared(problem, partition, grids, reference, runs)


def solve(prepared: Prepared, span) -> tuple[float, list]:
    """Run every driver against the shared reference.

    ``span(name)`` is a context manager around each driver call. Returns
    the driver time summed and the (method name, history) pairs.
    """
    total = 0.0
    histories = []
    for spec, guesses in prepared.runs:
        method = spec.config.method
        start = time.perf_counter()
        with span(f"driver.{method.value}"):
            history = _RUNNERS[method](
                prepared.problem,
                prepared.partition,
                prepared.grids,
                spec.config,
                guesses,
                reference=prepared.reference,
            )
        total += time.perf_counter() - start
        histories.append((method.value, history))
    return total, histories


def envelope(prepared: Prepared, history) -> tuple[float, ...]:
    """The harness's envelope overlay of the first driver, one per sweep.

    The closed-form envelope times the initial error, as ``wrkit preset``
    writes it in the ``bound`` column. Raises if the run does not qualify.
    """
    spec, guesses = prepared.runs[0]
    bound_fn = _bound_fn(spec, prepared.partition)
    if bound_fn is None:
        raise ValueError(f"{spec.model} {spec.config.method.value} run has no envelope")
    err0 = _initial_error(guesses, prepared.reference)
    return tuple(bound_fn(k) * err0 for k in range(1, history.iterations + 1))


def fixed_point(part: Part, seed: int, smoke: bool):
    """Solve the part with ``fixed_point_data`` added, to its own fixed point.

    On non-matching time grids the relaxation's fixed point differs from
    the monodomain solve by the discretization error, so this solve
    passes no reference and stops when the updates drop below the
    tolerance. Returns the prepared part and the history.
    """
    prepared = set_up(part.configs(seed, smoke, part.fixed_point_data))
    spec, guesses = prepared.runs[0]
    history = _RUNNERS[spec.config.method](
        prepared.problem, prepared.partition, prepared.grids, spec.config, guesses, reference=None
    )
    return prepared, history
