"""Response solves: on a uniform grid a subdomain solve is a convolution in time.

Every output a response solve returns (a Dirichlet trace at an x, a
flux, a Robin combination) must match the same quantity read off the
march of the same kernel, and the row-0 facts the responses rest on are
checked against the kernels directly. A run builds every response before
its first sweep, its heat keys in one block march, and each response
equals the one its key builds marched alone.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

import wrkit.methods
import wrkit.methods.workspace as workspace
from wrkit.errors import IncompatibleGrids, ValidationError, WrongBoundaryKind
from wrkit.grids import InterfaceTrace, TimeGrid, TraceKind, make_partition
from wrkit.harness import build_guesses, load_config, preset_names, preset_text, run_experiment, with_out_dir
from wrkit.harness.run import _setup as preset_setup
from wrkit.kernels import (
    HeatProblem,
    Wave2DProblem,
    WaveProblem,
    solve_heat_subdomain,
    solve_wave_strip_2d,
    solve_wave_subdomain,
)
from wrkit.methods import RunGrids, guess_grids, make_run_grids, wr_run
from wrkit.methods.workspace import Output, build_workspaces

from conftest import pack

D, N, R = TraceKind.DIRICHLET, TraceKind.NEUMANN, TraceKind.ROBIN

HEAT = HeatProblem(
    interval=(0.0, 3.0),
    nu=0.7,
    initial=lambda x: np.sin(x) + 0.5,
    boundary_left=lambda t: 1.0 + t**2,
    boundary_right=lambda t: np.cos(3.0 * t),
    source=lambda x, t: x * t,
)

WAVE = WaveProblem(
    interval=(0.0, 3.0),
    speed=1.3,
    initial_u=lambda x: x * (3.0 - x),
    initial_ut=lambda x: np.cos(x),
    boundary_left=lambda t: t**2,
    boundary_right=lambda t: np.sin(2.0 * t),
    source=lambda x, t: np.exp(-x) * t,
)

STRIP = Wave2DProblem(
    interval=(0.0, 1.5),
    speed=1.0,
    initial_u=lambda x, y: x * np.sin(y),
    initial_ut=lambda x, y: np.sin(2.0 * y) + 0.0 * x,
    boundary_left=lambda y, t: t * np.sin(y),
    boundary_right=lambda y, t: t**2 * np.sin(y),
    boundary_bottom=lambda x, t: t * x,
    boundary_top=lambda x, t: np.sin(t) + x,
    source=lambda x, y, t: x * y * t,
)

# (problem, partition, dx, T, dt, dy)
SETUPS = {
    "heat": (HEAT, (0.0, 1.0, 2.0, 3.0), 0.1, 1.0, 0.02, None),
    "wave": (WAVE, (0.0, 1.0, 2.0, 3.0), 0.05, 1.0, 0.025, None),
    "strip": (STRIP, (0.0, 0.5, 1.0, 1.5), 0.1, 1.0, 0.05, math.pi / 12),
}


def _spaces(model: str, dt=None, T=None):
    problem, boundaries, dx, window, step, dy = SETUPS[model]
    part = make_partition(boundaries)
    grids = make_run_grids(part, dx, window if T is None else T, step if dt is None else dt, dy)
    spaces, _ = build_workspaces(problem, part, grids)
    return spaces


def _trace(space, kind, seed=None):
    """Random interface data of ``kind``, nonzero at row 0 as well (zero without a seed)."""
    shape = (space.tgrid.n_steps + 1,) + (() if space.ygrid is None else (space.ygrid.n_nodes,))
    samples = np.zeros(shape) if seed is None else np.random.default_rng(seed).standard_normal(shape)
    return InterfaceTrace(kind, space.tgrid, samples, robin_p=2.5 if kind is R else None)


def _single(space, left_bc, right_bc, homogeneous=False):
    """One march of the public kernel: the subdomain's data (zero if homogeneous), these traces."""
    data = [np.zeros_like(a) for a in space.data] if homogeneous else space.data
    source = None if homogeneous else space.problem.source
    if isinstance(space, workspace._Heat1D):
        return solve_heat_subdomain(
            space.xgrid, space.problem.nu, space.tgrid, *data, left_bc, right_bc, source
        )
    if space.ygrid is None:
        return solve_wave_subdomain(
            space.xgrid, space.c, space.tgrid, *data, left_bc, right_bc, source
        )
    u0, v0, bottom, top = data
    return solve_wave_strip_2d(
        space.xgrid, space.ygrid, space.c, space.tgrid, u0, v0, left_bc, right_bc, bottom, top,
        source,
    )


def _march(space, left, right, homogeneous=False):
    """The public kernel's march of a solve; Neumann data is c du/dx, and the kernel takes du/dx."""
    inputs = {
        s: bc.with_samples(bc.samples / space.impedance) if bc.kind is N else bc
        for s, bc in (("left", left), ("right", right))
        if bc is not None
    }
    return _single(space, *space._boundaries(inputs, homogeneous), homogeneous)


def _solve(*solves):
    """The traces of each of ``solves``, ``(space, left, right, outputs[, homogeneous])``, as a run solves them.

    A solve applies its key's response, so keys not built yet are built
    first the way a run builds them: one ``_build_all`` whose recording
    sweep is these solves.
    """

    def sweep(_):
        return [space.solve(*args) for space, *args in solves]

    try:
        return sweep(None)
    except KeyError:
        workspace._build_all(dict(enumerate(dict.fromkeys(space for space, *_ in solves))), sweep, None)
    return sweep(None)


def _outputs(space, left, right):
    """Every output a sweep could read: u at both ends and inside, flux and Robin where allowed.

    A flux, and so a Robin combination, needs a side without Neumann
    data; the physical ends carry Dirichlet data.
    """
    x = space.xgrid
    outputs = [Output(D, x.x_left), Output(D, x.nodes[x.n_cells // 2]), Output(D, x.x_right)]
    for side, bc in (("left", left), ("right", right)):
        if bc is None or bc.kind is not N:
            outputs += [Output(N, side), Output(R, side, 1.5)]
    return outputs


def _assert_matches_march(space, left, right, homogeneous=False, outputs=None):
    """Compare each output with the same quantity read off the marched field, rows 0 and M too."""
    outputs = _outputs(space, left, right) if outputs is None else outputs
    (got,) = _solve((space, left, right, outputs, homogeneous))
    field = _march(space, left, right, homogeneous)
    source = None if homogeneous else space.problem.source
    assert len(got) == len(outputs)
    for out, trace in zip(outputs, got):
        want = space.read(field, out, source)
        assert trace.kind is out.kind and trace.robin_p == out.robin_p
        assert trace.grid is space.tgrid and trace.samples.shape == want.shape
        tol = 1e-12 * float(np.max(np.abs(want)))
        err = np.abs(trace.samples - want)
        assert np.max(err[0]) <= tol and np.max(err[-1]) <= tol, out
        assert np.max(err) <= tol, out
        if space.ygrid is not None and out.kind is N:
            assert np.all(trace.samples[:, [0, -1]] == 0.0)  # a flux reports the corners as zero
    return got


CASES = [
    ("heat", 2, D, N, False),
    ("heat", 2, N, R, False),
    ("heat", 2, R, D, False),
    ("heat", 1, None, R, False),
    ("heat", 3, N, None, True),
    ("heat", 2, N, N, True),
    ("wave", 2, D, N, False),
    ("wave", 2, N, D, False),
    ("wave", 1, None, N, False),
    ("wave", 3, D, None, False),
    ("wave", 2, N, N, True),
    ("strip", 2, D, N, False),
    ("strip", 2, N, D, False),
    ("strip", 1, None, D, False),
    ("strip", 2, N, N, True),
]


@pytest.mark.parametrize(
    "model, s, left, right, homogeneous",
    CASES,
    ids=[f"{m}-{s}-{l and l.name}-{r and r.name}-{'hom' if h else 'data'}" for m, s, l, r, h in CASES],
)
def test_response_solve_matches_the_march(model, s, left, right, homogeneous):
    space = _spaces(model)[s]
    assert space.tgrid.uniform
    lbc = None if left is None else _trace(space, left, 1)
    rbc = None if right is None else _trace(space, right, 2)
    _assert_matches_march(space, lbc, rbc, homogeneous)
    # A second solve with other data reuses the built responses.
    lbc = None if left is None else _trace(space, left, 3)
    rbc = None if right is None else _trace(space, right, 4)
    _assert_matches_march(space, lbc, rbc, homogeneous)


def test_fft_length_is_the_smallest_5_smooth_length():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    want = 1
    for n in range(4096, 0, -1):
        want = n if smooth(n) else want
        assert workspace._fft_length(n) == want, n


# Grids whose 2 rows - 1 is itself 2^a 3^b 5^c (rows 14 -> 27, rows 113 ->
# 225), so the convolution length has no slack. The wave kernels have rows
# + 1 taps, and one point shorter wraps their last product into row 1; the
# heat kernels' last tap is zero, so there the length has one point to spare.
@pytest.mark.parametrize("model", ["heat", "wave", "strip"])
@pytest.mark.parametrize("rows, length", [(14, 27), (113, 225)])
def test_the_shortest_convolution_length_matches_the_march(model, rows, length):
    dt = SETUPS[model][4]
    space = _spaces(model, T=(rows - 1) * dt)[2]
    assert space.tgrid.uniform and space.tgrid.n_steps + 1 == rows
    left, right = _trace(space, D, 1), _trace(space, N, 2)
    _assert_matches_march(space, left, right)
    (response,) = space._responses.values()
    assert response.length == length


def test_named_columns_match_the_march():
    for dt in (None, 0.07):  # uniform, then clipped
        space = _spaces("strip", dt=dt)[2]
        outputs = [Output(D, x) for x in (0.6, 0.8, 0.9)]
        for seed in (5, 7):
            lbc, rbc = _trace(space, D, seed), _trace(space, D, seed + 1)
            _assert_matches_march(space, lbc, rbc, outputs=outputs)
        assert len(space._responses) == 1


def test_reading_a_column_not_kept_raises():
    space = _spaces("heat")[2]
    left, right = _trace(space, D, 1), _trace(space, N, 2)
    with pytest.raises(IncompatibleGrids, match="not a node"):
        _solve((space, left, right, [Output(D, 1.05)]))  # between two nodes
    with pytest.raises(IncompatibleGrids, match="not a node"):
        _solve((space, left, right, [Output(D, 2.5)]))  # outside the subdomain
    with pytest.raises(WrongBoundaryKind):
        _solve((space, left, right, [Output(N, "right")]))  # the flux there is the input
    with pytest.raises(WrongBoundaryKind):
        _solve((space, left, right, [Output(R, "right", 1.5)]))
    assert not space._responses


# On a clipped grid rows 0..M are a response on the uniform prefix and
# row M + 1 is a last-row map; steps from the presets and perfbench.
CLIPPED = [
    ("heat", 0.13, None, 2, D, N, False),
    ("heat", 0.039, None, 2, N, D, False),
    ("heat", 0.039, None, 2, R, D, False),
    ("heat", 0.13, None, 1, None, R, False),
    ("heat", 0.6, None, 2, D, N, False),  # M = 1
    ("heat", 0.13, None, 2, N, N, True),
    ("wave", 0.013, None, 2, D, N, False),
    ("wave", 0.0039, None, 2, N, D, False),
    ("wave", 0.013, None, 1, None, N, False),
    ("wave", 0.013, None, 3, N, None, False),
    ("wave", 0.03, 0.05, 2, N, D, False),  # M = 1
    ("wave", 0.0039, None, 2, N, N, True),
    ("strip", 0.07, None, 2, D, N, False),
    ("strip", 0.07, None, 2, N, D, False),
    ("strip", 0.07, None, 3, N, None, False),
    ("strip", 0.07, None, 2, N, N, True),
]


@pytest.mark.parametrize(
    "model, dt, T, s, left, right, homogeneous",
    CLIPPED,
    ids=[
        f"{m}-dt{dt}-{s}-{l and l.name}-{r and r.name}-{'hom' if h else 'data'}"
        for m, dt, T, s, l, r, h in CLIPPED
    ],
)
def test_clipped_response_solve_matches_the_march(model, dt, T, s, left, right, homogeneous):
    space = _spaces(model, dt=dt, T=T)[s]
    steps = space.tgrid.steps
    assert not space.tgrid.uniform and steps[-1] < steps[0]
    if T is not None:
        assert space.tgrid.n_steps == 2
    for seed in (1, 3):  # the second solve reuses the cached kernels
        lbc = None if left is None else _trace(space, left, seed)
        rbc = None if right is None else _trace(space, right, seed + 1)
        _assert_matches_march(space, lbc, rbc, homogeneous)


@pytest.mark.parametrize("model, kernel", [
    ("heat", "_heat_march"),
    ("wave", "_wave_march"),
    ("strip", "_wave_march"),
])
def test_clipped_and_uniform_grids_build_once(monkeypatch, model, kernel):
    calls = []
    real = getattr(workspace, kernel)
    monkeypatch.setattr(workspace, kernel, lambda *a, **k: calls.append(1) or real(*a, **k))

    for dt in (SETUPS[model][4] * 1.1, None):
        calls.clear()
        space = _spaces(model, dt=dt)[2]
        assert space.tgrid.uniform is (dt is None)
        for seed in (1, 2, 3):
            left, right = _trace(space, D, seed), _trace(space, N, seed + 1)
            (traces,) = _solve((space, left, right, _outputs(space, left, right)))
            assert all(isinstance(trace, InterfaceTrace) for trace in traces)
        assert len(calls) == 1  # one batched march: the particular part and one impulse per side


@pytest.mark.parametrize("model, kernel", [
    ("heat", "_heat_march"),
    ("wave", "_wave_march"),
    ("strip", "_wave_march"),
])
def test_a_key_not_built_is_a_key_error_that_builds_nothing(monkeypatch, model, kernel):
    calls = []
    real = getattr(workspace, kernel)
    monkeypatch.setattr(workspace, kernel, lambda *a, **k: calls.append(1) or real(*a, **k))
    space = _spaces(model)[2]
    left, right = _trace(space, D, 1), _trace(space, N, 2)
    with pytest.raises(KeyError):
        space.solve(left, right, _outputs(space, left, right))
    assert calls == [] and space._responses == {}


@pytest.mark.parametrize("model, name", [
    ("heat", "heat_interface_flux"),
    ("wave", "wave_interface_flux"),
    ("strip", "wave_interface_flux"),
])
def test_fluxes_are_extracted_at_build_time_only(monkeypatch, model, name):
    calls = []
    real = getattr(workspace, name)
    monkeypatch.setattr(workspace, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    for dt in (None, SETUPS[model][4] * 1.1):  # uniform, then clipped
        space = _spaces(model, dt=dt)[2]
        left, right = _trace(space, D, 1), _trace(space, N, 2)
        outputs = _outputs(space, left, right)
        _solve((space, left, right, outputs))
        built = len(calls)
        assert built > 0
        for seed in (3, 5):
            _solve((space, _trace(space, D, seed), _trace(space, N, seed + 1), outputs))
        assert len(calls) == built


# Subdomains 2 and 3 have equal widths, exact in binary, so their grids
# are equal; subdomain 4 is twice as wide.
@pytest.mark.parametrize("model, boundaries", [
    ("heat", (0.0, 0.5, 1.0, 1.5, 2.5, 3.0)),
    ("wave", (0.0, 0.5, 1.0, 1.5, 2.5, 3.0)),
    ("strip", (0.0, 0.25, 0.5, 0.75, 1.25, 1.5)),
])
def test_equal_subdomains_share_the_impulse_part(monkeypatch, model, boundaries):
    problem, _, dx, T, dt, dy = SETUPS[model]
    dx = 0.125 if model == "strip" else dx
    part = make_partition(boundaries)
    spaces, _ = build_workspaces(problem, part, make_run_grids(part, dx, T, dt, dy))
    batches = []
    real = spaces[1]._march_all

    def counted(jobs):  # a job is one key's march: (space, (left_bc, right_bc, g_left, g_right, particular))
        jobs = list(jobs)
        for _, (left_bc, _, g_left, _, _) in jobs:
            batches.append(g_left.shape[-1] if g_left.ndim > left_bc.samples.ndim else None)
        return real(jobs)

    monkeypatch.setattr(type(spaces[1]), "_march_all", staticmethod(counted))
    for homogeneous in (False, True):
        batches.clear()
        solves = []
        for s, seed in ((2, 1), (3, 3)):  # equal widths, the same side kinds and outputs
            space = spaces[s]
            left, right = _trace(space, D, seed), _trace(space, N, seed + 1)
            solves.append((space, left, right, _outputs(space, left, right), homogeneous))
        _solve(*solves)  # one build, as a run's
        for space, left, right, _, _ in solves:
            _assert_matches_march(space, left, right, homogeneous)
        # subdomain 3 marches its particular part alone, unbatched, or nothing if homogeneous
        assert batches == ([2] if homogeneous else [3, None])
    batches.clear()
    solves = []
    for s in (2, 4):  # the same side kinds and outputs, but 4 is wider: its own build
        space = spaces[s]
        outputs = [Output(N, "left"), Output(D, space.xgrid.x_left)]
        solves.append((space, _trace(space, D, 5), _trace(space, N, 6), outputs))
    _solve(*solves)
    for space, left, right, outputs in solves:
        _assert_matches_march(space, left, right, outputs=outputs)
    assert batches == [3, 3]


# (model, dt or None for the uniform grid, subdomain, left, right, homogeneous)
BATCHES = [
    ("heat", None, 2, D, N, False),
    ("heat", None, 2, R, N, False),
    ("heat", 0.13, 2, N, R, False),
    ("heat", 0.13, 1, None, R, False),
    ("heat", None, 2, N, N, True),
    ("wave", None, 2, N, D, False),
    ("wave", 0.013, 2, D, N, False),
    ("wave", 0.013, 3, N, None, False),
    ("wave", None, 2, N, N, True),
    ("strip", None, 2, D, N, False),
    ("strip", 0.07, 2, N, D, False),
    ("strip", None, 3, N, None, False),
    ("strip", 0.07, 2, N, N, True),
]


@pytest.mark.parametrize(
    "model, dt, s, left, right, homogeneous",
    BATCHES,
    ids=[
        f"{m}-dt{dt}-{s}-{l and l.name}-{r and r.name}-{'hom' if h else 'data'}"
        for m, dt, s, l, r, h in BATCHES
    ],
)
def test_each_entry_of_a_build_march_is_the_single_march(monkeypatch, model, dt, s, left, right, homogeneous):
    space = _spaces(model, dt=dt)[s]
    marches = []
    real = space._march_all

    def batched(jobs):
        jobs = list(jobs)
        fields = list(real(jobs))
        marches.extend((*args, values) for (_, args), values in zip(jobs, fields))
        return fields

    monkeypatch.setattr(type(space), "_march_all", staticmethod(batched))
    lbc = None if left is None else _trace(space, left, 1)
    rbc = None if right is None else _trace(space, right, 2)
    _solve((space, lbc, rbc, _outputs(space, lbc, rbc), homogeneous))
    ((left_bc, right_bc, g_left, g_right, particular, values),) = marches
    sides = sum(bc is not None for bc in (lbc, rbc))
    assert particular is not homogeneous
    assert values.shape[-1] == g_left.shape[-1] == sides + particular
    for entry in range(values.shape[-1]):
        want = _single(
            space,
            left_bc.with_samples(g_left[..., entry]),
            right_bc.with_samples(g_right[..., entry]),
            homogeneous=entry > 0 or homogeneous,
        )
        assert np.array_equal(values[..., entry], want.values), entry


def test_a_grid_no_response_can_serve_is_rejected():
    problem, boundaries, dx, T, step, dy = SETUPS["wave"]
    part = make_partition(boundaries)
    grids = make_run_grids(part, dx, T, step, dy)
    longer = np.append(np.arange(39) * step, T)  # a final step twice the others
    uneven = np.linspace(0.0, T, 41) ** 1.5
    for times in (longer, uneven):
        bad = RunGrids(grids.dx, grids.tgrids[:2] + (TimeGrid(times),), grids.dy)
        with pytest.raises(ValidationError, match="time grid 3 is neither uniform nor uniform steps"):
            build_workspaces(problem, part, bad)


# The row-0 facts: which kernels read row 0 of their interface data.


@pytest.mark.parametrize("model, kind", [
    ("heat", D), ("heat", N), ("heat", R), ("wave", D), ("strip", D),
])
def test_row_0_of_the_data_is_not_read(model, kind):
    space = _spaces(model)[2]
    other = _trace(space, D, 7)
    bc = _trace(space, kind, 8)
    changed = np.array(bc.samples)
    changed[0] += 3.0
    a = _march(space, bc, other)
    b = _march(space, bc.with_samples(changed), other)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("model", ["wave", "strip"])
def test_wave_neumann_row_0_response_is_half_the_row_1_response_shifted(model):
    space = _spaces(model)[2]
    zero = _trace(space, N)

    def response(row):
        samples = np.zeros_like(zero.samples)
        samples[row] = 1.0
        return _march(space, zero.with_samples(samples), _trace(space, D), homogeneous=True).values

    r0, r1 = response(0), response(1)
    assert np.max(np.abs(r0)) > 0
    assert np.max(np.abs(r0[:-1] - 0.5 * r1[1:])) <= 1e-14 * np.max(np.abs(r1))


# A run builds its responses before its first sweep, and all of its heat
# keys on one time grid march as one block system.


def _with_method(text: str, method: str, extra: str = "") -> str:
    """A heat preset's text run with another method (DNWR's arrangement dropped)."""
    lines = [line for line in text.splitlines() if not line.startswith(("arrangement", "method"))]
    return "\n".join(lines) + f"\nmethod = {method}\n{extra}"


def _heat_chain(monkeypatch, smoke: bool) -> str:
    """perfbench's nine-subdomain heat chain, at its smoke or full sizes."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import HEAT_CHAIN

    (text,) = HEAT_CHAIN.configs(1, smoke)
    return text


HEAT_PRESETS = [name for name in preset_names() if "model = heat1d" in preset_text(name)]
HEAT_RUNS = HEAT_PRESETS + [
    "fig_heat_5sub_T2:nnwr", "fig_heat_5sub_T2:swr_classical", "fig_heat_5sub_T2:swr_robin",
    "heat_chain:smoke", "heat_chain:full",
]


def _run_text(monkeypatch, name: str) -> str:
    base, _, variant = name.partition(":")
    if base == "heat_chain":
        return _heat_chain(monkeypatch, variant == "smoke")
    if not variant:
        return preset_text(base)
    return _with_method(preset_text(base), variant, "robin_p = 2\n" if variant == "swr_robin" else "")


def _set_up(monkeypatch, text: str):
    """The workspaces of a run once its driver has set up: every response built, no sweep run."""
    spec = load_config(text)
    problem, partition, grids, ygrid = preset_setup(spec)
    guesses = build_guesses(spec.guess, guess_grids(partition, grids, spec.config), ygrid)
    built = []
    real = workspace.build_workspaces
    with monkeypatch.context() as m:
        m.setattr(workspace, "build_workspaces", lambda *a, **k: built.append(real(*a, **k)) or built[-1])
        m.setattr(wrkit.methods, "_drive", workspace._setup)
        wr_run(problem, partition, grids, spec.config, guesses, reference=None)
    ((spaces, _),) = built
    return spaces


@pytest.mark.parametrize("name", HEAT_RUNS)
def test_the_block_march_is_the_per_key_march(monkeypatch, name):
    text = _run_text(monkeypatch, name)
    real = workspace._heat_march
    sizes = []
    with monkeypatch.context() as m:
        m.setattr(workspace, "_heat_march", lambda tgrid, blocks: sizes.append(len(blocks)) or real(tgrid, blocks))
        spaces = _set_up(m, text)
    assert sizes and max(sizes) > 1  # the keys marched as blocks of one system
    with monkeypatch.context() as m:  # the oracle: each key marched alone
        m.setattr(workspace, "_heat_march", lambda tgrid, blocks: [real(tgrid, [b])[0] for b in blocks])
        alone = _set_up(m, text)
    for s, space in spaces.items():
        assert space._responses.keys() == alone[s]._responses.keys()
        for key, response in space._responses.items():
            want = alone[s]._responses[key]
            for attr in ("base", "kernels", "ends"):
                assert np.array_equal(getattr(response, attr), getattr(want, attr)), (s, key, attr)
            assert len(response.heads) == len(want.heads)
            for (o, e, taps), (o2, e2, taps2) in zip(response.heads, want.heads):
                assert (o, e) == (o2, e2) and np.array_equal(taps, taps2), (s, key)


def test_no_response_is_built_inside_a_sweep(monkeypatch, tmp_path):
    phase = [None]
    built = {"setup": 0, "sweeps": 0}
    marches = []  # (time grid, blocks, entries) of each heat march in a set-up
    real_setup, real_init, real_march = workspace._setup, workspace._Response.__init__, workspace._heat_march
    real_build_all = workspace._build_all

    def setup(*args, **kwargs):
        phase[0] = "setup"
        out = real_setup(*args, **kwargs)
        phase[0] = "sweeps"
        return out

    def init(self, *args, **kwargs):
        built[phase[0]] += 1
        real_init(self, *args, **kwargs)

    def march(tgrid, blocks):
        if phase[0] == "setup":
            entries = sum(1 if b.initial.ndim == 1 else b.initial.shape[1] for b in blocks)
            marches.append((tgrid, len(blocks), entries))
        return real_march(tgrid, blocks)

    def build_all(spaces, sweep, state):  # the recording sweep leaves its state as it was
        before = pack(state)
        real_build_all(spaces, sweep, state)
        assert np.array_equal(pack(state), before)

    monkeypatch.setattr(workspace, "_setup", setup)
    monkeypatch.setattr(workspace._Response, "__init__", init)
    monkeypatch.setattr(workspace, "_heat_march", march)
    monkeypatch.setattr(workspace, "_build_all", build_all)
    texts = {name: preset_text(name) for name in preset_names()}
    texts["heat_chain"] = _heat_chain(monkeypatch, smoke=False)
    texts["fig_heat_5sub_T2:swr_robin"] = _run_text(monkeypatch, "fig_heat_5sub_T2:swr_robin")
    for name, text in texts.items():
        phase[0] = None
        built.update(setup=0, sweeps=0)
        marches.clear()
        run_experiment(with_out_dir(load_config(text), str(tmp_path)))
        assert built["setup"] > 0 and built["sweeps"] == 0, name
        if "model = heat1d" in text:
            assert len(marches) == 1, name  # one block march: a heat run has one time grid
        else:
            assert not marches, name
        if name == "heat_chain":
            assert [m[1:] for m in marches] == [(9, 17)]  # 9 subdomains, 17 entries
