"""Response solves: on a uniform grid a subdomain solve is a convolution in time.

Every column a response solve keeps, its Dirichlet traces and its fluxes
must match the march of the same kernel, and the row-0 facts the
responses rest on are checked against the kernels directly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import wrkit.methods.workspace as workspace
from wrkit.errors import ValidationError
from wrkit.grids import InterfaceTrace, TimeGrid, TraceKind, make_partition
from wrkit.kernels import HeatProblem, Wave2DProblem, WaveProblem
from wrkit.kernels.problems import ColumnField
from wrkit.methods import RunGrids, make_run_grids
from wrkit.methods.workspace import build_workspaces

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
    x_interval=(0.0, 1.5),
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


def _march(space, left, right, homogeneous=False):
    return space._march(*space._boundaries(
        {s: bc for s, bc in (("left", left), ("right", right)) if bc is not None}, homogeneous
    ), homogeneous)


def _assert_matches_march(space, left, right, homogeneous=False, boundaries=True):
    """Compare every kept column and, if ``boundaries``, the traces and fluxes the drivers read."""
    got = space.solve(left, right, homogeneous)
    assert isinstance(got, ColumnField)
    want = _march(space, left, right, homogeneous)
    tol = 1e-12 * float(np.max(np.abs(want.values)))
    assert got.columns
    for j in got.columns:
        assert np.max(np.abs(got.column(j) - want.column(j))) <= tol, j
    for side, bc in (("left", left), ("right", right)):
        if bc is None or not boundaries:
            continue
        a, b = space.dirichlet_trace(got, side), space.dirichlet_trace(want, side)
        assert np.max(np.abs(a.samples - b.samples)) <= tol
        if bc.kind is not N:
            a, b = space.flux(got, side), space.flux(want, side)
            assert np.max(np.abs(a.samples - b.samples)) <= tol
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
    # A second solve with other data reuses the cached responses.
    lbc = None if left is None else _trace(space, left, 3)
    rbc = None if right is None else _trace(space, right, 4)
    _assert_matches_march(space, lbc, rbc, homogeneous)


def test_named_columns_match_the_march():
    for dt in (None, 0.07):  # uniform, then clipped
        space = _spaces("strip", dt=dt)[2]
        space.read_columns([0.6, 0.8, 0.9])
        for seed in (5, 7):
            lbc, rbc = _trace(space, D, seed), _trace(space, D, seed + 1)
            got = _assert_matches_march(space, lbc, rbc, boundaries=False)
        assert sorted(got.columns) == [1, 3, 4]


def test_reading_a_column_not_kept_raises():
    space = _spaces("heat")[2]
    got = space.solve(_trace(space, D, 1), _trace(space, N, 2))
    assert sorted(got.columns) == [0, 1, 9, 10]
    with pytest.raises(KeyError, match="not kept"):
        got.column(5)


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
    ("heat", "solve_heat_subdomain"),
    ("wave", "solve_wave_subdomain"),
    ("strip", "solve_wave_strip_2d"),
])
def test_clipped_and_uniform_grids_build_once(monkeypatch, model, kernel):
    calls = []
    real = getattr(workspace, kernel)
    monkeypatch.setattr(workspace, kernel, lambda *a: calls.append(1) or real(*a))

    for dt in (SETUPS[model][4] * 1.1, None):
        calls.clear()
        space = _spaces(model, dt=dt)[2]
        assert space.tgrid.uniform is (dt is None)
        for seed in (1, 2, 3):
            field = space.solve(_trace(space, D, seed), _trace(space, N, seed + 1))
            assert isinstance(field, ColumnField)
        assert len(calls) == 3  # the particular part and one impulse per side


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
