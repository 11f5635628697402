"""Time-grid projection: plan invariants, interpolation accuracy, linearity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrkit.errors import WindowMismatch
from wrkit.grids import InterfaceTrace, TimeGrid, TraceKind, make_time_grid
from wrkit.methods import relax_update
from wrkit.projection import build_plan, project_trace


def trace_on(tg, fn, kind=TraceKind.DIRICHLET):
    return InterfaceTrace(kind, tg, fn(tg.times))


def random_grid(rng, T=1.0, max_steps=12) -> TimeGrid:
    n = rng.integers(1, max_steps + 1)
    inc = rng.uniform(0.05, 1.0, size=n)
    times = np.concatenate(([0.0], np.cumsum(inc)))
    times *= T / times[-1]
    times[-1] = T
    return TimeGrid(times)


def test_identity_plan():
    tg = make_time_grid(1.0, 0.1)
    plan = build_plan(tg, tg)
    assert plan.identity
    tr = trace_on(tg, np.sin)
    out = project_trace(tr, plan)
    np.testing.assert_array_equal(out.samples, tr.samples)
    assert out.grid is tg


def test_refinement_uses_midpoint_weights():
    src = make_time_grid(1.0, 0.1)
    dst = make_time_grid(1.0, 0.05)
    plan = build_plan(src, dst)
    assert not plan.identity
    # Odd destination nodes sit halfway between source nodes.
    np.testing.assert_allclose(plan.w0[1::2], 0.5, rtol=1e-12)
    np.testing.assert_allclose(plan.w1[1::2], 0.5, rtol=1e-12)
    # Even destination nodes coincide with source nodes.
    np.testing.assert_allclose(plan.w0[0::2] * plan.w1[0::2], 0.0, atol=1e-12)


def test_window_mismatch_raises():
    src = make_time_grid(2.0, 0.1)
    dst = make_time_grid(1.0, 0.1)
    with pytest.raises(WindowMismatch):
        build_plan(src, dst)


def test_linear_trace_projected_exactly():
    src = make_time_grid(2.0, 0.1)
    dst = make_time_grid(2.0, 0.0125)
    out = project_trace(trace_on(src, lambda t: 3.0 * t), build_plan(src, dst))
    np.testing.assert_allclose(out.samples, 3.0 * dst.times, atol=1e-14)


def test_sin_refinement_error_bound():
    # Piecewise-linear interpolation error <= dt^2/8 * max|g''| = 0.00125.
    src = make_time_grid(2.0, 0.1)
    dst = make_time_grid(2.0, 0.05)
    out = project_trace(trace_on(src, np.sin), build_plan(src, dst))
    err = np.max(np.abs(out.samples - np.sin(dst.times)))
    assert err <= 1.25e-3
    assert err > 1e-5  # the bound is within an order of being sharp


def test_plan_weight_invariants_random_grids():
    rng = np.random.default_rng(42)
    for _ in range(25):
        src = random_grid(rng)
        dst = random_grid(rng)
        plan = build_plan(src, dst)
        assert np.all(plan.w0 >= 0.0) and np.all(plan.w0 <= 1.0)
        assert np.all(plan.w1 >= 0.0) and np.all(plan.w1 <= 1.0)
        np.testing.assert_allclose(plan.w0 + plan.w1, 1.0, rtol=1e-12)
        assert np.all(np.diff(plan.idx0) >= 0)
        assert np.all(plan.idx1 >= plan.idx0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_projection_never_overshoots(seed):
    rng = np.random.default_rng(seed)
    src = random_grid(rng)
    dst = random_grid(rng)
    samples = rng.uniform(-5.0, 5.0, size=len(src.times))
    tr = InterfaceTrace(TraceKind.DIRICHLET, src, samples)
    out = project_trace(tr, build_plan(src, dst)).samples
    assert out.min() >= samples.min() - 1e-12
    assert out.max() <= samples.max() + 1e-12


def test_roundtrip_preserves_linear_traces():
    fine = make_time_grid(1.0, 0.01)
    coarse = make_time_grid(1.0, 0.1)
    tr = trace_on(fine, lambda t: 2.0 - 4.0 * t)
    down = project_trace(tr, build_plan(fine, coarse))
    back = project_trace(down, build_plan(coarse, fine))
    np.testing.assert_allclose(back.samples, tr.samples, atol=1e-14)


def test_projection_commutes_with_relaxation():
    rng = np.random.default_rng(7)
    src = make_time_grid(1.0, 0.05)
    dst = random_grid(rng, T=1.0)
    plan = build_plan(src, dst)
    new = InterfaceTrace(TraceKind.DIRICHLET, src, rng.uniform(-1, 1, len(src.times)))
    old = InterfaceTrace(TraceKind.DIRICHLET, src, rng.uniform(-1, 1, len(src.times)))
    theta = 0.37
    a = project_trace(relax_update(theta, new, old), plan).samples
    b = relax_update(
        theta, project_trace(new, plan), project_trace(old, plan)
    ).samples
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_projection_of_2d_traces_per_column():
    src = make_time_grid(1.0, 0.1)
    dst = make_time_grid(1.0, 0.02)
    y = np.linspace(0.0, np.pi, 6)
    samples = src.times[:, None] * np.sin(y)[None, :]
    tr = InterfaceTrace(TraceKind.DIRICHLET, src, samples)
    out = project_trace(tr, build_plan(src, dst))
    assert out.samples.shape == (len(dst.times), 6)
    np.testing.assert_allclose(
        out.samples, dst.times[:, None] * np.sin(y)[None, :], atol=1e-14
    )


def test_projection_preserves_kind():
    src = make_time_grid(1.0, 0.1)
    dst = make_time_grid(1.0, 0.05)
    plan = build_plan(src, dst)
    out = project_trace(trace_on(src, np.cos, kind=TraceKind.NEUMANN), plan)
    assert out.kind is TraceKind.NEUMANN
