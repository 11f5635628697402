"""Partitions, time grids, space grids, CFL numbers, traces."""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrkit.errors import (
    IncompatibleGrids,
    NonDivisibleWindow,
    NonIncreasingBoundaries,
    TooFewSubdomains,
)
from wrkit.grids import (
    InterfaceTrace,
    SpaceGrid1D,
    TimeGrid,
    TraceKind,
    cfl_number,
    grids_equal,
    make_partition,
    make_time_grid,
    make_time_grid_clipped,
    zero_trace,
)
from wrkit.harness import load_config, preset_names, preset_text


def test_partition_five_equal():
    p = make_partition((0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
    assert p.n_subdomains == 5
    assert p.n_interfaces == 4
    np.testing.assert_array_equal(p.widths, np.ones(5))
    assert p.h_min == 1.0
    assert p.interval == (0.0, 5.0)
    assert p.bounds(1) == (0.0, 1.0)
    assert p.bounds(5) == (4.0, 5.0)
    assert p.interface_position(2) == 2.0


def test_partition_uneven():
    p = make_partition((0.0, 1.0, 1.5, 3.0, 4.0, 5.0))
    np.testing.assert_allclose(p.widths, [1.0, 0.5, 1.5, 1.0, 1.0])
    assert p.h_min == 0.5


def test_partition_rejects_non_increasing():
    with pytest.raises(NonIncreasingBoundaries):
        make_partition((0.0, 1.0, 1.0))
    with pytest.raises(NonIncreasingBoundaries):
        make_partition((0.0, 2.0, 1.0))


def test_partition_rejects_too_few():
    with pytest.raises(TooFewSubdomains):
        make_partition((0.0, 1.0))
    with pytest.raises(TooFewSubdomains):
        make_partition((0.0,))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=2,
        max_size=12,
    ),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_partition_widths_sum_to_span(widths, start):
    bounds = np.concatenate(([start], start + np.cumsum(widths)))
    p = make_partition(bounds)
    span = bounds[-1] - bounds[0]
    assert abs(p.widths.sum() - span) <= 1e-12 * abs(span)


def test_partition_roundtrip():
    p = make_partition((0.0, 1.0, 1.5, 3.0, 4.0, 5.0))
    q = make_partition(p.boundaries)
    np.testing.assert_array_equal(p.boundaries, q.boundaries)


def test_time_grid_node_count():
    tg = make_time_grid(2.0, 0.004)
    assert len(tg.times) == 501
    assert tg.uniform
    assert tg.T == 2.0
    assert tg.n_steps == 500
    np.testing.assert_allclose(tg.steps, 0.004, rtol=1e-12)


def test_time_grid_single_step():
    tg = make_time_grid(1.0, 1.0)
    np.testing.assert_array_equal(tg.times, [0.0, 1.0])


def test_time_grid_rejects_non_divisor():
    with pytest.raises(NonDivisibleWindow):
        make_time_grid(1.0, 0.3)


def test_time_grid_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_time_grid(0.0, 0.1)
    with pytest.raises(ValueError):
        make_time_grid(1.0, -0.1)


def test_clipped_grid_short_final_step():
    tg = make_time_grid_clipped(2.0, 0.13)
    assert not tg.uniform
    assert tg.times[-1] == 2.0
    np.testing.assert_allclose(tg.times[:-1], 0.13 * np.arange(16), rtol=1e-12)
    assert tg.steps[-1] < 0.13
    assert tg.max_step == pytest.approx(0.13)


def test_clipped_grid_exact_divisor_is_uniform():
    tg = make_time_grid_clipped(2.0, 0.004)
    assert tg.uniform
    assert len(tg.times) == 501


def test_time_grid_uniform_is_read_off_its_times():
    # Uniform subdomain solves are convolutions that trust the flag.
    assert TimeGrid(np.linspace(0.0, 2.0, 501)).uniform
    assert not TimeGrid(np.array([0.0, 0.1, 0.3])).uniform


def test_window_grids_are_uniform_and_clipped_grids_are_not(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    steps = {dt for name in preset_names() for dt in load_config(preset_text(name)).dt_list()}
    for part in (workloads.HEAT_CHAIN, workloads.WAVE_MISMATCH, workloads.STRIP_METHODS):
        for values in (part.full, part.smoke):
            steps.update(float(v) for v in values["dt"].split(","))
    clipped = 0
    for T in (0.4, 1.0, 2.0, 5.0, 8.0):
        for dt in sorted(steps):
            try:
                assert make_time_grid(T, dt).uniform, (T, dt)
            except NonDivisibleWindow:
                grid = make_time_grid_clipped(T, dt)
                assert grid.steps[-1] < dt and not grid.uniform, (T, dt)
                clipped += 1
    assert 0 < clipped < 5 * len(steps)


def test_cfl_1d_unit():
    assert cfl_number(1.0, 0.02, 0.02) == 1.0


def test_cfl_2d():
    assert cfl_number(1.0, 0.05, 0.04, dy=0.16) == pytest.approx(0.8382, abs=1e-4)


def test_cfl_1d_mixed():
    assert cfl_number(2.0, 0.1, 0.039) == pytest.approx(0.78)


def test_cfl_scales_exactly_in_dt():
    # Doubling dt doubles the number bit-for-bit (power-of-two scaling).
    base = cfl_number(1.3, 0.07, 0.011)
    assert cfl_number(1.3, 0.07, 0.022) == 2.0 * base
    base2d = cfl_number(1.3, 0.07, 0.011, dy=0.2)
    assert cfl_number(1.3, 0.07, 0.022, dy=0.2) == 2.0 * base2d


def test_space_grid_with_spacing():
    g = SpaceGrid1D.with_spacing(0.0, 1.0, 0.25)
    assert g.n_cells == 4
    assert g.n_nodes == 5
    assert g.dx == 0.25
    np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_space_grid_rejects_off_lattice_spacing():
    with pytest.raises(IncompatibleGrids):
        SpaceGrid1D.with_spacing(0.0, 1.0, 0.3)


def test_space_grid_node_index():
    g = SpaceGrid1D.with_spacing(0.0, 5.0, 0.02)
    assert g.node_index(2.0) == 100
    assert g.node_index(0.0) == 0
    assert g.node_index(5.0) == 250
    with pytest.raises(IncompatibleGrids):
        g.node_index(2.011)


def test_grids_equal():
    a = make_time_grid(1.0, 0.1)
    b = make_time_grid(1.0, 0.1)
    c = make_time_grid(1.0, 0.05)
    assert grids_equal(a, a)
    assert grids_equal(a, b)
    assert not grids_equal(a, c)


def test_trace_validates_sample_count():
    tg = make_time_grid(1.0, 0.5)
    with pytest.raises(IncompatibleGrids):
        InterfaceTrace(TraceKind.DIRICHLET, tg, np.zeros(4))


def test_trace_rejects_non_finite():
    tg = make_time_grid(1.0, 0.5)
    with pytest.raises(ValueError):
        InterfaceTrace(TraceKind.DIRICHLET, tg, np.array([0.0, np.nan, 1.0]))


def test_trace_robin_coefficient_pairing():
    tg = make_time_grid(1.0, 0.5)
    with pytest.raises(ValueError):
        InterfaceTrace(TraceKind.ROBIN, tg, np.zeros(3))
    with pytest.raises(ValueError):
        InterfaceTrace(TraceKind.DIRICHLET, tg, np.zeros(3), robin_p=1.0)
    tr = InterfaceTrace(TraceKind.ROBIN, tg, np.zeros(3), robin_p=1.0)
    assert tr.robin_p == 1.0


def test_zero_trace_shapes():
    tg = make_time_grid(1.0, 0.5)
    assert zero_trace(tg).samples.shape == (3,)
    assert zero_trace(tg, TraceKind.NEUMANN, ny=4).samples.shape == (3, 5)
    assert not zero_trace(tg).is_2d
    assert zero_trace(tg, ny=4).is_2d


def test_trace_samples_are_read_only():
    tg = make_time_grid(1.0, 0.5)
    tr = zero_trace(tg)
    with pytest.raises(ValueError):
        tr.samples[0] = 1.0
