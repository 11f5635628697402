"""Experiment descriptions and the key=value config parser.

A config is UTF-8 text, one ``key = value`` per line, ``#`` to end of
line is a comment. ``load_config`` parses, fills defaults, and runs every
semantic check that can be done without solving anything: preset names
exist, partitions sit on the space lattice with at least 2 cells per
subdomain, explicit wave steps pass the CFL limit, Schwarz runs meet
their driver's rules. Runs never start from a spec that would die mid-way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..errors import ParseError, UnknownKey, ValidationError, WrkitError
from ..grids import CFL_SLACK, SpaceGrid1D, cfl_number, make_partition, make_time_grid_clipped
from ..methods import Arrangement, Method, WrConfig
from ..methods.swr import schwarz_shift
from ..methods.workspace import check_span, snap_ygrid
from . import presets

__all__ = ["ExperimentSpec", "load_config", "with_out_dir"]

_MODELS = ("heat1d", "wave1d", "wave2d")

_ARRANGEMENTS = {
    "sequential": Arrangement.A1,
    "redblack": Arrangement.A2,
    "outward": Arrangement.A3,
}
_ARRANGEMENT_NAMES = {v: k for k, v in _ARRANGEMENTS.items()}

# full key schema; anything else is UnknownKey
_KEYS = (
    "model",
    "interval",
    "y_interval",
    "partition",
    "nu",
    "c",
    "dx",
    "dy",
    "dt",
    "T",
    "initial",
    "initial_rate",
    "left",
    "right",
    "bottom",
    "top",
    "source",
    "method",
    "arrangement",
    "theta",
    "tol",
    "max_iters",
    "overlap_cells",
    "robin_p",
    "guess",
    "label",
    "out",
)

_2D_ONLY = ("dy", "y_interval", "bottom", "top")
_WAVE_ONLY = ("c", "initial_rate")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one benchmark run needs, fully resolved.

    ``dt`` is a single step shared by all subdomains or one step per
    subdomain; ``c`` likewise for the 1D wave model. Data slots hold
    preset names (see :mod:`.presets`); ``config`` carries the method
    knobs. ``guess`` keeps its raw token so random seeds survive the
    round trip into manifests.
    """

    model: str
    interval: tuple[float, float]
    partition: tuple[float, ...]
    dx: float
    dt: float | tuple[float, ...]
    T: float
    nu: float | None = None
    c: float | tuple[float, ...] | None = None
    dy: float | None = None
    y_interval: tuple[float, float] | None = None
    initial: str = "zero"
    initial_rate: str = "zero"
    left: str = "zero"
    right: str = "zero"
    bottom: str = "zero"
    top: str = "zero"
    source: str = "zero"
    config: WrConfig = field(default_factory=WrConfig)
    guess: str = "zero"
    label: str = "experiment"
    out: str = "runs"

    @property
    def n_subdomains(self) -> int:
        return len(self.partition) - 1

    @property
    def zero_data(self) -> bool:
        """True when every data slot is the zero preset (error-equation run)."""
        slots = (self.initial, self.initial_rate, self.left, self.right, self.source)
        if self.model == "wave2d":
            slots = slots + (self.bottom, self.top)
        return all(name == "zero" for name in slots)

    def dt_list(self) -> tuple[float, ...]:
        if isinstance(self.dt, tuple):
            return self.dt
        return (self.dt,) * self.n_subdomains

    def c_list(self) -> tuple[float, ...]:
        if self.c is None:
            raise ValidationError("heat runs have no wave speed")
        if isinstance(self.c, tuple):
            return self.c
        return (self.c,) * self.n_subdomains

    def arrangement_name(self) -> str:
        return _ARRANGEMENT_NAMES[self.config.arrangement]


# ---------------------------------------------------------------------------
# parsing


def _parse_lines(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(lineno, "empty key")
        if not value:
            raise ParseError(lineno, f"key {key!r} has no value")
        if key in pairs:
            raise ParseError(lineno, f"duplicate key {key!r}")
        if key not in _KEYS:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        pairs[key] = value
    return pairs


def _floats(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in value.split(","))
    except ValueError:
        raise ValidationError(f"expected a number or comma list, got {value!r}") from None


def _float(value: str, key: str) -> float:
    vals = _floats(value)
    if len(vals) != 1:
        raise ValidationError(f"key {key!r} takes a single number, got {value!r}")
    return vals[0]


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"key {key!r} takes an integer, got {value!r}") from None


def _scalar_or_per_subdomain(value: str) -> float | tuple[float, ...]:
    vals = _floats(value)
    return vals[0] if len(vals) == 1 else vals


def _pair(value: str, key: str) -> tuple[float, float]:
    vals = _floats(value)
    if len(vals) != 2:
        raise ValidationError(f"key {key!r} takes two numbers, got {value!r}")
    return (vals[0], vals[1])


def _reject_irrelevant(pairs: dict[str, str], model: str, method: Method) -> None:
    if model != "wave2d":
        for key in _2D_ONLY:
            if key in pairs:
                raise ValidationError(f"key {key!r} only applies to wave2d runs")
    if model == "heat1d":
        for key in _WAVE_ONLY:
            if key in pairs:
                raise ValidationError(f"key {key!r} only applies to wave runs")
    else:
        if "nu" in pairs:
            raise ValidationError("key 'nu' only applies to heat1d runs")
    if method is not Method.SWR_CLASSICAL and "overlap_cells" in pairs:
        raise ValidationError("key 'overlap_cells' only applies to swr_classical")
    if method is not Method.SWR_ROBIN and "robin_p" in pairs:
        raise ValidationError("key 'robin_p' only applies to swr_robin")


def _check_lattice(spec: ExperimentSpec) -> None:
    """The run's own span check and space grids, so no spec fails them mid-run."""
    a, b = spec.interval
    if not b > a:
        raise ValidationError("interval must have positive length")
    try:
        partition = make_partition(spec.partition)  # increasing, at least two subdomains
        check_span(spec.interval, partition)
        grid = SpaceGrid1D.with_spacing(a, b, spec.dx)
        for p in spec.partition:
            grid.node_index(p)
        cells = [
            SpaceGrid1D.with_spacing(*partition.bounds(i), spec.dx).n_cells
            for i in range(1, partition.n_subdomains + 1)
        ]
    except WrkitError as exc:
        raise ValidationError(str(exc)) from None
    for i, n in enumerate(cells, start=1):
        if n < 2:
            raise ValidationError(f"subdomain {i} is narrower than 2 cells of dx={spec.dx!r}")


def _check_schwarz(spec: ExperimentSpec) -> None:
    if spec.config.method in (Method.SWR_CLASSICAL, Method.SWR_ROBIN):
        speeds = () if spec.c is None else spec.c_list()
        schwarz_shift(spec.config, make_partition(spec.partition), spec.dx, speeds)


def _check_cfl(spec: ExperimentSpec) -> None:
    if spec.model == "heat1d":
        return
    speeds = spec.c_list()
    steps = spec.dt_list()
    if len(speeds) != spec.n_subdomains:
        raise ValidationError(
            f"need one wave speed per subdomain ({spec.n_subdomains}), got {len(speeds)}"
        )
    dy = snap_ygrid(spec.y_interval, spec.dy).dx if spec.model == "wave2d" else None
    for i, (c, dt) in enumerate(zip(speeds, steps), start=1):
        if c <= 0 or dt <= 0:
            raise ValidationError("wave speeds and time steps must be positive")
        # the run's time grid: a step that does not divide T is clipped
        courant = cfl_number(c, spec.dx, make_time_grid_clipped(spec.T, dt).max_step, dy=dy)
        if courant > 1.0 + CFL_SLACK:
            raise ValidationError(
                f"subdomain {i} fails the CFL check: c*dt/dx = {courant!r} > 1"
            )


def _check_presets(spec: ExperimentSpec) -> None:
    presets.parse_guess(spec.guess)
    if spec.guess == "tsin" and spec.model != "wave2d":
        raise ValidationError("guess preset 'tsin' needs a 2D run")
    if spec.source != "zero":
        raise ValidationError("only the zero source preset is shipped")
    if spec.model == "wave2d":
        presets.space2d_fn(spec.initial)
        presets.space2d_fn(spec.initial_rate)
        presets.side_fn(spec.left)
        presets.side_fn(spec.right)
        presets.edge_fn(spec.bottom)
        presets.edge_fn(spec.top)
    else:
        presets.space_fn(spec.initial, spec.interval)
        presets.time_fn(spec.left)
        presets.time_fn(spec.right)
        if spec.model == "wave1d":
            presets.space_fn(spec.initial_rate, spec.interval)


def load_config(text: str) -> ExperimentSpec:
    """Parse and validate config text into an :class:`ExperimentSpec`.

    Raises :class:`ParseError` (with the 1-based line number) for lines
    that are not ``key = value``, :class:`UnknownKey` for keys outside
    the schema, and :class:`ValidationError` for anything semantically
    wrong: missing required keys, bad preset names, theta out of (0, 1],
    partitions off the lattice, subdomains narrower than 2 cells,
    explicit wave steps above the CFL limit, or Schwarz runs across
    wave speed jumps or with an overlap past a neighboring subdomain.
    """
    pairs = _parse_lines(text)

    model = pairs.get("model")
    if model is None:
        raise ValidationError("missing required key 'model'")
    if model not in _MODELS:
        raise ValidationError(f"model must be one of {_MODELS}, got {model!r}")

    for key in ("interval", "partition", "dx", "dt", "T"):
        if key not in pairs:
            raise ValidationError(f"missing required key {key!r}")
    if model == "heat1d" and "nu" not in pairs:
        raise ValidationError("heat1d runs need 'nu'")
    if model != "heat1d" and "c" not in pairs:
        raise ValidationError("wave runs need 'c'")
    if model == "wave2d" and "dy" not in pairs:
        raise ValidationError("wave2d runs need 'dy'")

    try:
        method = Method(pairs["method"]) if "method" in pairs else Method.DNWR
    except ValueError:
        names = tuple(m.value for m in Method)
        raise ValidationError(
            f"method must be one of {names}, got {pairs['method']!r}"
        ) from None
    _reject_irrelevant(pairs, model, method)

    arrangement = _ARRANGEMENTS.get(pairs.get("arrangement", "outward"))
    if arrangement is None:
        raise ValidationError(
            f"arrangement must be one of {tuple(_ARRANGEMENTS)}, got {pairs['arrangement']!r}"
        )

    guess = pairs.get("guess", "zero")

    config = WrConfig(
        method=method,
        theta=_float(pairs["theta"], "theta") if "theta" in pairs else None,
        max_iters=_int(pairs["max_iters"], "max_iters") if "max_iters" in pairs else 50,
        tol=_float(pairs["tol"], "tol") if "tol" in pairs else 1e-10,
        arrangement=arrangement,
        overlap_cells=_int(pairs["overlap_cells"], "overlap_cells")
        if "overlap_cells" in pairs
        else 1,
        robin_p=_float(pairs["robin_p"], "robin_p") if "robin_p" in pairs else None,
    )

    c = _scalar_or_per_subdomain(pairs["c"]) if "c" in pairs else None
    if model == "wave2d" and isinstance(c, tuple):
        raise ValidationError("wave2d takes a single wave speed")

    spec = ExperimentSpec(
        model=model,
        interval=_pair(pairs["interval"], "interval"),
        partition=_floats(pairs["partition"]),
        dx=_float(pairs["dx"], "dx"),
        dt=_scalar_or_per_subdomain(pairs["dt"]),
        T=_float(pairs["T"], "T"),
        nu=_float(pairs["nu"], "nu") if "nu" in pairs else None,
        c=c,
        dy=_float(pairs["dy"], "dy") if "dy" in pairs else None,
        y_interval=_pair(pairs["y_interval"], "y_interval")
        if "y_interval" in pairs
        else ((0.0, math.pi) if model == "wave2d" else None),
        initial=pairs.get("initial", "zero"),
        initial_rate=pairs.get("initial_rate", "zero"),
        left=pairs.get("left", "zero"),
        right=pairs.get("right", "zero"),
        bottom=pairs.get("bottom", "zero"),
        top=pairs.get("top", "zero"),
        source=pairs.get("source", "zero"),
        config=config,
        guess=guess,
        label=pairs.get("label", "experiment"),
        out=pairs.get("out", "runs"),
    )

    if spec.dx <= 0 or spec.T <= 0:
        raise ValidationError("dx and T must be positive")
    for dt in spec.dt_list():
        if dt <= 0:
            raise ValidationError("time steps must be positive")
    if len(spec.dt_list()) != spec.n_subdomains:
        raise ValidationError(
            f"need one time step per subdomain ({spec.n_subdomains}), "
            f"got {len(spec.dt_list())}"
        )
    if spec.nu is not None and spec.nu <= 0:
        raise ValidationError("nu must be positive")
    if spec.model == "wave2d" and not (spec.dy > 0 and spec.y_interval[1] > spec.y_interval[0]):
        raise ValidationError("dy and the y_interval length must be positive")
    _check_lattice(spec)
    _check_cfl(spec)
    _check_schwarz(spec)
    _check_presets(spec)
    return spec


def with_out_dir(spec: ExperimentSpec, out: str | None) -> ExperimentSpec:
    """The same spec writing into ``out`` (no-op when ``out`` is None)."""
    return spec if out is None else replace(spec, out=out)
