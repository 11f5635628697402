"""Experiment descriptions and the key=value config parser.

A config is UTF-8 text, one ``key = value`` per line, ``#`` to end of
line is a comment. ``load_config`` parses each key through one table
(``_KEYS``), leaves absent keys to the dataclass defaults, and runs every
semantic check that can be done without solving anything: preset names
exist, partitions sit on the space lattice with at least 2 cells per
subdomain, explicit wave steps pass the CFL limit, Schwarz runs meet
their driver's rules. Runs never start from a spec that would die mid-way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from ..errors import ParseError, UnknownKey, ValidationError, WrkitError
from ..grids import CFL_SLACK, SpaceGrid1D, TimeGrid, cfl_number, make_partition, make_time_grid_clipped
from ..kernels.common import invalid_factor
from ..kernels.heat import heat_factors
from ..kernels.wave import march_factors, wave_factors
from ..methods import Arrangement, Method, WrConfig
from ..methods.swr import schwarz_shift
from ..methods.workspace import check_span, snap_ygrid
from . import presets

__all__ = ["ExperimentSpec", "load_config", "with_out_dir"]

_MODELS = ("heat1d", "wave1d", "wave2d")
_WAVE = ("wave1d", "wave2d")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one benchmark run needs, fully resolved.

    ``dt`` and ``c`` are a single value shared by all subdomains or, on
    the 1D wave model, one value per subdomain. Data slots hold
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


# Parsers take (value, key) and raise ValidationError naming the key.


def _numbers(value: str, key: str) -> tuple[float, ...]:
    """A comma list of finite numbers."""
    try:
        vals = tuple(float(tok) for tok in value.split(","))
    except ValueError:
        raise ValidationError(f"key {key!r} takes a number or comma list, got {value!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise ValidationError(f"key {key!r} takes finite numbers, got {value!r}")
    return vals


def _number(value: str, key: str) -> float:
    vals = _numbers(value, key)
    if len(vals) != 1:
        raise ValidationError(f"key {key!r} takes a single number, got {value!r}")
    return vals[0]


def _pair(value: str, key: str) -> tuple[float, float]:
    vals = _numbers(value, key)
    if len(vals) != 2:
        raise ValidationError(f"key {key!r} takes two numbers, got {value!r}")
    return vals


def _number_or_list(value: str, key: str) -> float | tuple[float, ...]:
    """One number shared by all subdomains, or one per subdomain."""
    vals = _numbers(value, key)
    return vals[0] if len(vals) == 1 else vals


def _positive(parse):
    """``parse``, with every number it reads required to be positive."""

    def parse_positive(value: str, key: str):
        out = parse(value, key)
        if min(_numbers(value, key)) <= 0:
            raise ValidationError(f"key {key!r} must be positive, got {value!r}")
        return out

    return parse_positive


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"key {key!r} takes an integer, got {value!r}") from None


def _text(value: str, key: str) -> str:
    return value


def _file_name(value: str, key: str) -> str:
    """A plain file name, which the run's output files are named after."""
    if value in (".", "..") or any(c in value for c in "/\\\0"):
        raise ValidationError(
            f"key {key!r} must be a plain file name (no '/', '\\' or NUL, not '.' or '..'), got {value!r}"
        )
    return value


def _dir_name(value: str, key: str) -> str:
    """A directory path the operating system can take: one without a NUL byte."""
    if "\0" in value:
        raise ValidationError(f"key {key!r} must not hold a NUL byte, got {value!r}")
    return value


def _choice(options):
    """Parser for one of ``options``: a tuple of names, or an Enum by value."""
    members = tuple(options)
    names = tuple(getattr(m, "value", m) for m in members)

    def parse(value: str, key: str):
        if value not in names:
            raise ValidationError(f"{key} must be one of {names}, got {value!r}")
        return members[names.index(value)]

    return parse


def _guess(value: str, key: str) -> str:
    presets.parse_guess(value)
    return value


@dataclass(frozen=True)
class _Key:
    """One config key: its parser, and the models and methods that take it.

    A required key must be given wherever it applies. Keys are named as
    the :class:`ExperimentSpec` or :class:`WrConfig` field they fill, so
    an absent key takes that field's default.
    """

    parse: Callable[[str, str], object]
    models: tuple[str, ...] = _MODELS
    methods: tuple[Method, ...] = tuple(Method)
    required: bool = False


# the full key schema; anything else is UnknownKey
_KEYS = {
    "model": _Key(_choice(_MODELS)),  # checked first: applicability depends on it
    "interval": _Key(_pair, required=True),
    "y_interval": _Key(_pair, models=("wave2d",)),
    "partition": _Key(_numbers, required=True),
    "nu": _Key(_positive(_number), models=("heat1d",), required=True),
    "c": _Key(_positive(_number_or_list), models=_WAVE, required=True),
    "dx": _Key(_positive(_number), required=True),
    "dy": _Key(_positive(_number), models=("wave2d",), required=True),
    "dt": _Key(_positive(_number_or_list), required=True),
    "T": _Key(_positive(_number), required=True),
    "initial": _Key(_text),
    "initial_rate": _Key(_text, models=_WAVE),
    "left": _Key(_text),
    "right": _Key(_text),
    "bottom": _Key(_text, models=("wave2d",)),
    "top": _Key(_text, models=("wave2d",)),
    "source": _Key(_text),
    "method": _Key(_choice(Method)),
    "arrangement": _Key(_choice(Arrangement), methods=(Method.DNWR,)),
    "theta": _Key(_number),
    "tol": _Key(_number),
    "max_iters": _Key(_int),
    "overlap_cells": _Key(_int, methods=(Method.SWR_CLASSICAL,)),
    "robin_p": _Key(_number, methods=(Method.SWR_ROBIN,), required=True),
    "guess": _Key(_guess),
    "label": _Key(_file_name),
    "out": _Key(_dir_name),
}

_CONFIG_KEYS = tuple(f.name for f in fields(WrConfig))


def _check_keys(values: dict, model: str, method: Method) -> None:
    """Every given key applies to the run, and every required one is given."""
    for key, entry in _KEYS.items():
        if model not in entry.models:
            scope = entry.models
        elif method not in entry.methods:
            scope = tuple(m.value for m in entry.methods)
        else:
            if entry.required and key not in values:
                raise ValidationError(f"missing required key {key!r}")
            continue
        if key in values:
            raise ValidationError(f"key {key!r} only applies to {' and '.join(scope)} runs")


# What numpy and round raise for a grid with too many nodes to build.
_TOO_BIG = (ValueError, OverflowError, MemoryError)


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
    except _TOO_BIG as exc:
        raise ValidationError(
            f"dx = {spec.dx!r} on ({a!r}, {b!r}): the space grid cannot be built ({exc})"
        ) from None
    for i, n in enumerate(cells, start=1):
        if n < 2:
            raise ValidationError(f"subdomain {i} is narrower than 2 cells of dx={spec.dx!r}")


def _check_schwarz(spec: ExperimentSpec) -> None:
    if spec.config.method in (Method.SWR_CLASSICAL, Method.SWR_ROBIN):
        speeds = () if spec.c is None else spec.c_list()
        schwarz_shift(spec.config, make_partition(spec.partition), spec.dx, speeds)


def _time_grids(spec: ExperimentSpec) -> list[TimeGrid]:
    """The run's time grid of each subdomain, or a ValidationError naming a dt and T it cannot build."""
    grids: dict[float, TimeGrid] = {}
    for dt in spec.dt_list():
        if dt not in grids:
            try:
                grids[dt] = make_time_grid_clipped(spec.T, dt)
            except _TOO_BIG as exc:
                raise ValidationError(f"dt = {dt!r} on T = {spec.T!r}: the time grid cannot be built ({exc})") from None
    return [grids[dt] for dt in spec.dt_list()]


def _check_factors(where: str, *factors, **named) -> None:
    """Raise a ValidationError naming the keys ``named`` (None aside) if ``factors`` break the magnitude rule."""
    for each in factors:
        problem = invalid_factor(each)
        if problem is not None:
            keys = ", ".join(f"{key} = {value!r}" for key, value in named.items() if value is not None)
            raise ValidationError(f"{where}{keys}: {problem}")


def _check_scheme(spec: ExperimentSpec, tgrids: list[TimeGrid]) -> None:
    """The kernels' factors of every march the run makes, heat's envelope, each wave step's CFL limit."""
    if spec.model == "heat1d":
        factors = heat_factors(spec.nu, spec.dx, tgrids[0].steps, spec.config.robin_p or 0.0)
        _check_factors("", factors, nu=spec.nu, dx=spec.dx, dt=spec.dt, T=spec.T, robin_p=spec.config.robin_p)
        from .run import _bound_fn  # run imports this module
        if spec.nu * spec.T == 0.0 and _bound_fn(spec, make_partition(spec.partition)):
            raise ValidationError(f"nu = {spec.nu!r}, T = {spec.T!r}: nu*T underflows to 0 in the envelope overlay")
        return
    speeds = spec.c_list()
    if len(speeds) != spec.n_subdomains:
        raise ValidationError(
            f"need one wave speed per subdomain ({spec.n_subdomains}), got {len(speeds)}"
        )
    dy = None
    if spec.model == "wave2d":
        try:
            dy = snap_ygrid(spec.y_interval, spec.dy).dx
        except _TOO_BIG as exc:
            y0, y1 = spec.y_interval
            raise ValidationError(
                f"dy = {spec.dy!r} on ({y0!r}, {y1!r}): the y grid cannot be built ({exc})"
            ) from None
    for i, (c, dt, tgrid) in enumerate(zip(speeds, spec.dt_list(), tgrids), start=1):
        if (c, dt) in zip(speeds[: i - 1], spec.dt_list()):  # an earlier subdomain's march
            continue
        # The response builds also difference unit fields on two steps tau_0.
        factors = march_factors(c, spec.dx, dy, np.concatenate((tgrid.steps[:1], tgrid.steps)))
        _check_factors(f"subdomain {i}: ", *factors, c=c, dx=spec.dx, dy=spec.dy, dt=dt, T=spec.T)
        # the run's time grid: a step that does not divide T is clipped
        courant = cfl_number(c, spec.dx, tgrid.max_step, dy=dy)
        if courant > 1.0 + CFL_SLACK:
            raise ValidationError(
                f"subdomain {i} fails the CFL check: c*dt/dx = {courant!r} > 1"
            )
    if len(set(speeds)) > 1:  # the reference's speed jumps, as its march on one speed per cell forms them
        _check_factors("", wave_factors(speeds, spec.dx, None), c=spec.c, dx=spec.dx)


def load_config(text: str) -> ExperimentSpec:
    """Parse and validate config text into an :class:`ExperimentSpec`.

    Raises :class:`ParseError` (with the 1-based line number) for lines
    that are not ``key = value``, :class:`UnknownKey` for keys outside
    the schema, and :class:`ValidationError` for anything semantically
    wrong: non-finite numbers, missing required keys, keys that do not
    apply to the model or method, a label that is not a plain file name,
    an ``out`` holding a NUL byte, bad preset names, theta out of (0, 1],
    partitions off the lattice, subdomains narrower than 2 cells, a dx,
    dy or dt whose grid cannot be built (too many nodes for numpy),
    explicit wave steps above the CFL limit, per-subdomain steps off the
    1D wave model, Robin Schwarz on a wave model, Schwarz runs across
    wave speed jumps or with an overlap past a neighboring subdomain, an
    envelope overlay whose nu*T underflows to 0, and a scheme whose
    coefficients are not all finite, or its divisors not all normal
    floats (the error names the keys and values behind them).
    """
    values = {key: _KEYS[key].parse(raw, key) for key, raw in _parse_lines(text).items()}
    if "model" not in values:
        raise ValidationError("missing required key 'model'")
    model = values["model"]
    _check_keys(values, model, values.get("method", WrConfig.method))
    config = WrConfig(**{key: values.pop(key) for key in _CONFIG_KEYS if key in values})
    if model == "wave2d":
        values.setdefault("y_interval", (0.0, math.pi))
    spec = ExperimentSpec(config=config, **values)

    if model == "wave2d" and isinstance(spec.c, tuple):
        raise ValidationError("wave2d takes a single wave speed")
    if model != "wave1d" and isinstance(spec.dt, tuple):
        raise ValidationError(f"{model} takes a single time step")
    if len(spec.dt_list()) != spec.n_subdomains:
        raise ValidationError(
            f"need one time step per subdomain ({spec.n_subdomains}), "
            f"got {len(spec.dt_list())}"
        )
    if model == "wave2d" and not spec.y_interval[1] > spec.y_interval[0]:
        raise ValidationError("y_interval must have positive length")
    _check_lattice(spec)
    _check_scheme(spec, _time_grids(spec))
    _check_schwarz(spec)
    presets.build_problem(spec)  # every data slot names one of its presets
    if spec.guess == "tsin" and model != "wave2d":
        raise ValidationError("guess preset 'tsin' needs a 2D run")
    return spec


def with_out_dir(spec: ExperimentSpec, out: str | None) -> ExperimentSpec:
    """The same spec writing into ``out`` (no-op when ``out`` is None).

    Raises :class:`ValidationError` when ``out`` holds a NUL byte.
    """
    return spec if out is None else replace(spec, out=_dir_name(out, "out"))
