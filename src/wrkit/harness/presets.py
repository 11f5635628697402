"""Named data functions, initial-guess builders, and shipped experiment configs.

Data presets are enumerated identifiers rather than parsed expressions:
each benchmark uses a handful of fixed functions, so shipping them as
named callables keeps configs trivially validatable. There is one table
per data slot because the same name can mean different arities (a time
signal, a 1D profile, a 2D side trace); :func:`build_problem` is the
only reader of those tables.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ValidationError
from ..grids import InterfaceTrace, SpaceGrid1D, TimeGrid, TraceKind
from ..kernels import HeatProblem, Wave2DProblem, WaveProblem

if TYPE_CHECKING:
    from .spec import ExperimentSpec

__all__ = [
    "build_problem",
    "parse_guess",
    "build_guesses",
    "preset_text",
    "preset_names",
]


# ---------------------------------------------------------------------------
# data presets

# boundary signals of one variable t
_TIME_DATA = {
    "zero": lambda t: 0.0,
    "t2": lambda t: t**2,
    "t3": lambda t: t**3,
    "texp": lambda t: t * np.exp(-t),
    "t2exp": lambda t: t**2 * np.exp(-t),
}

# 2D initial profiles over (x, y)
_SPACE2D_DATA = {
    "zero": lambda x, y: 0.0,
    "poly2d": lambda x, y: (
        x * y * (x - 1.0) * (y - np.pi) * (5.0 * x - 2.0) * (4.0 * x - 3.0)
    ),
}

# 2D left/right boundary traces over (y, t)
_SIDE_DATA = {
    "zero": lambda y, t: 0.0,
    "tsiny": lambda y, t: t * np.sin(y),
    "t2siny": lambda y, t: t**2 * np.sin(y),
    "t3ybump": lambda y, t: y * (y - np.pi) * t**3,
}

# 2D bottom/top boundary traces over (x, t)
_EDGE_DATA = {
    "zero": lambda x, t: 0.0,
}

# volume sources; None is zero forcing
_SOURCE_DATA = {
    "zero": None,
}

_GUESS_NAMES = ("zero", "t2", "t2exp", "tsin")
_RANDOM_GUESS = re.compile(r"^random\((\d+)\)$")


def build_problem(spec: ExperimentSpec):
    """The solver-facing problem statement a spec describes.

    Looks up every data slot's preset name in that slot's table and
    raises :class:`ValidationError` for a name the table lacks, which is
    how ``load_config`` checks the data presets.
    """

    def data(key: str, table: dict):
        name = getattr(spec, key)
        try:
            return table[name]
        except KeyError:
            raise ValidationError(
                f"unknown {key} preset {name!r} for {spec.model}: use one of {tuple(table)}"
            ) from None

    source = data("source", _SOURCE_DATA)
    if spec.model == "wave2d":
        return Wave2DProblem(
            interval=spec.interval,
            speed=spec.c,
            initial_u=data("initial", _SPACE2D_DATA),
            initial_ut=data("initial_rate", _SPACE2D_DATA),
            boundary_left=data("left", _SIDE_DATA),
            boundary_right=data("right", _SIDE_DATA),
            boundary_bottom=data("bottom", _EDGE_DATA),
            boundary_top=data("top", _EDGE_DATA),
            source=source,
            y_interval=spec.y_interval,
        )
    # 1D initial profiles are built against the problem interval, so
    # "parabola" always vanishes at both physical ends
    a, b = spec.interval
    space = {"zero": lambda x: 0.0, "parabola": lambda x: (x - a) * (b - x)}
    if spec.model == "heat1d":
        return HeatProblem(
            interval=spec.interval,
            nu=spec.nu,
            initial=data("initial", space),
            boundary_left=data("left", _TIME_DATA),
            boundary_right=data("right", _TIME_DATA),
            source=source,
        )
    return WaveProblem(
        interval=spec.interval,
        speed=spec.c,
        initial_u=data("initial", space),
        initial_ut=data("initial_rate", space),
        boundary_left=data("left", _TIME_DATA),
        boundary_right=data("right", _TIME_DATA),
        source=source,
    )


# ---------------------------------------------------------------------------
# initial-guess presets


def parse_guess(token: str) -> tuple[str, int | None]:
    """Split a guess token into (kind, seed); seed is set for random(N)."""
    m = _RANDOM_GUESS.match(token)
    if m:
        return "random", int(m.group(1))
    if token in _GUESS_NAMES:
        return token, None
    raise ValidationError(
        f"unknown guess preset {token!r}: use one of {_GUESS_NAMES} or random(N)"
    )


def build_guesses(
    token: str,
    tgrids: tuple[TimeGrid, ...],
    ygrid: SpaceGrid1D | None,
) -> list[InterfaceTrace]:
    """One Dirichlet guess trace per interface from a preset token.

    2D runs replicate scalar-in-time presets across the y nodes; the
    random preset draws independent uniform(-1, 1) samples per node from
    one generator, so the draw is reproducible given the seed and the
    trace shapes. The t=0 sample is zeroed here; the drivers overwrite it
    with the compatible value anyway.
    """
    kind, seed = parse_guess(token)
    rng = np.random.default_rng(seed) if kind == "random" else None
    out = []
    for tg in tgrids:
        t = tg.times
        if kind == "zero":
            vals = np.zeros_like(t)
        elif kind == "t2":
            vals = t**2
        elif kind == "t2exp":
            vals = t**2 * np.exp(-t)
        elif kind == "tsin":
            if ygrid is None:
                raise ValidationError("guess preset 'tsin' needs a 2D run")
            vals = t[:, None] * np.sin(ygrid.nodes[None, :])
        else:
            shape = (len(t),) if ygrid is None else (len(t), ygrid.n_nodes)
            vals = rng.uniform(-1.0, 1.0, size=shape)
            vals[0] = 0.0
        if ygrid is not None and vals.ndim == 1:
            vals = np.repeat(vals[:, None], ygrid.n_nodes, axis=1)
        out.append(InterfaceTrace(TraceKind.DIRICHLET, tg, vals))
    return out


# ---------------------------------------------------------------------------
# experiment presets (config text)


def _heat_5sub(T: float, tol: float, label: str) -> str:
    return f"""\
# diffusion on (0, 5), five equal subdomains, middle-outward sweep
model = heat1d
interval = 0, 5
partition = 0, 1, 2, 3, 4, 5
nu = 1
dx = 0.02
dt = 0.004
T = {T!r}
initial = parabola
left = t2
right = texp
method = dnwr
arrangement = outward
theta = 0.5
tol = {tol!r}
max_iters = 60
guess = t2
label = {label}
"""


def _heat_nsub(n: int) -> str:
    width = 5.0 / n
    dx = width / round(width / 0.02)
    bounds = ", ".join(repr(5.0 * i / n) for i in range(n + 1))
    return f"""\
# diffusion on (0, 5), {n} equal subdomains, sequential sweep
# dx snapped to the partition lattice (nearest to 0.02)
model = heat1d
interval = 0, 5
partition = {bounds}
nu = 1
dx = {dx!r}
dt = 0.004
T = 2
initial = parabola
left = t2
right = texp
method = dnwr
arrangement = sequential
theta = 0.5
tol = 1e-08
max_iters = 80
guess = t2
label = fig_heat_nsub{n}_T2
"""


def _wave_1d(T: float, tol: float, max_iters: int, label: str) -> str:
    return f"""\
# wave transport on (0, 5), five unequal subdomains
model = wave1d
interval = 0, 5
partition = 0, 1, 1.5, 3, 4, 5
c = 1
dx = 0.02
dt = 0.02
T = {T!r}
left = t2
right = t2exp
method = dnwr
theta = 0.5
tol = {tol!r}
max_iters = {max_iters}
guess = t2
label = {label}
"""


_WAVE2D_STRIPS = """\
# 2D wave on (0, 1) x (0, pi), three strips, window under the finite-step limit
model = wave2d
interval = 0, 1
partition = 0, 0.4, 0.75, 1
c = 1
dx = 0.05
dy = 0.16
dt = 0.04
T = 0.24
initial = poly2d
method = dnwr
theta = 0.5
tol = 1e-10
max_iters = 10
guess = tsin
label = fig_wave2d_T0p24
"""


_WAVE_NONMATCHING = """\
# wave chain with per-subdomain speeds and non-matching time grids
model = wave1d
interval = 0, 6
partition = 0, 2, 4, 6
c = 0.25, 2, 0.5
dx = 0.1
dt = 0.13, 0.039, 0.1
T = 2
left = t2
right = t3
method = dnwr
theta = 0.5
tol = 1e-08
max_iters = 80
guess = random(7)
label = fig_wave_nonmatching
"""


def _cmp2d(subs: int, method: str) -> str:
    bounds = "0, 0.6, 1" if subs == 2 else "0, 0.4, 0.75, 1"
    extra = "overlap_cells = 1\n" if method == "swr_classical" else ""
    return f"""\
# 2D wave comparison run, {subs} subdomains, shared data and guesses
model = wave2d
interval = 0, 1
partition = {bounds}
c = 1
dx = 0.05
dy = 0.16
dt = 0.04
T = 2
left = t2siny
right = t3ybump
method = {method}
{extra}tol = 1e-06
max_iters = 120
guess = random(0)
label = cmp2d_{subs}sub_{method}
"""


def _presets() -> dict[str, str]:
    out = {
        "fig_heat_5sub_T0p2": _heat_5sub(0.2, 1e-7, "fig_heat_5sub_T0p2"),
        "fig_heat_5sub_T2": _heat_5sub(2.0, 1e-10, "fig_heat_5sub_T2"),
        "fig_heat_5sub_T8": _heat_5sub(8.0, 1e-10, "fig_heat_5sub_T8"),
        "fig_wave_twostep": _wave_1d(0.5, 1e-10, 10, "fig_wave_twostep"),
        "fig_wave_T5": _wave_1d(5.0, 1e-10, 15, "fig_wave_T5"),
        "fig_wave2d_T0p24": _WAVE2D_STRIPS,
        "fig_wave_nonmatching": _WAVE_NONMATCHING,
    }
    for n in (3, 4, 5, 6):
        out[f"fig_heat_nsub{n}_T2"] = _heat_nsub(n)
    for subs in (2, 3):
        for method in ("dnwr", "nnwr", "swr_classical"):
            name = f"cmp2d_{subs}sub_{method}"
            out[name] = _cmp2d(subs, method)
    return out


_PRESETS = _presets()


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset_text(name: str) -> str:
    """The config text of a shipped experiment preset."""
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise ValidationError(f"no preset named {name!r}; shipped: {known}") from None
