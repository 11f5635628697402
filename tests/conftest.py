"""Shared problem builders for the test suite.

Everything here is deliberately small: fixed model problems the kernel,
method, and acceptance tests reuse, plus a couple of trace helpers and
the packing of a driver's iteration state into one vector.
"""

from __future__ import annotations

import numpy as np

from wrkit.grids import (
    InterfaceTrace,
    TimeGrid,
    TraceKind,
    make_partition,
    make_time_grid,
)
from wrkit.kernels import HeatProblem, Wave2DProblem, WaveProblem


def zero(*args):
    return np.zeros(np.broadcast(*args).shape) if args else 0.0


def heat_problem(interval=(0.0, 5.0), nu=1.0):
    """Heat benchmark problem: parabola initial bump, polynomial ends."""
    a, b = interval
    return HeatProblem(
        interval=interval,
        nu=nu,
        initial=lambda x: (x - a) * (b - x),
        boundary_left=lambda t: t**2,
        boundary_right=lambda t: t**2 * np.exp(-np.asarray(t, dtype=float)),
    )


def wave_problem(interval=(0.0, 5.0), speed=1.0):
    """Wave benchmark problem: same spatial bump, zero initial velocity."""
    a, b = interval
    return WaveProblem(
        interval=interval,
        speed=speed,
        initial_u=lambda x: (x - a) * (b - x),
        initial_ut=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        boundary_left=lambda t: t**2,
        boundary_right=lambda t: t**3,
    )


def strip_problem(speed=1.0):
    """2D strip problem on (0,1) x (0,pi) with homogeneous lids."""

    def u0(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return x * y * (x - 1.0) * (y - np.pi) * (5.0 * x - 2.0) * (4.0 * y - 3.0)

    return Wave2DProblem(
        interval=(0.0, 1.0),
        speed=speed,
        initial_u=u0,
        initial_ut=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        boundary_left=zero,
        boundary_right=zero,
        boundary_bottom=zero,
        boundary_top=zero,
    )


def dirichlet_trace(tgrid: TimeGrid, fn) -> InterfaceTrace:
    return InterfaceTrace(TraceKind.DIRICHLET, tgrid, fn(tgrid.times))


def neumann_trace(tgrid: TimeGrid, fn) -> InterfaceTrace:
    return InterfaceTrace(TraceKind.NEUMANN, tgrid, fn(tgrid.times))


def t_squared_guesses(partition, tgrids):
    """One g(t) = t^2 Dirichlet guess per interface, on the given grids."""
    return [
        dirichlet_trace(tgrids[i], lambda t: t**2)
        for i in range(partition.n_interfaces)
    ]


def five_unit_partition():
    return make_partition((0.0, 1.0, 2.0, 3.0, 4.0, 5.0))


def uneven_partition():
    return make_partition((0.0, 1.0, 1.5, 3.0, 4.0, 5.0))


def trace_distance(a: InterfaceTrace, b: InterfaceTrace) -> float:
    return float(np.max(np.abs(a.samples - b.samples)))


def uniform_grid(T: float, dt: float) -> TimeGrid:
    return make_time_grid(T, dt)


def pack(state) -> np.ndarray:
    """Every sample of a trace or a nest of lists and tuples of traces, as one 1-D vector."""
    if isinstance(state, InterfaceTrace):
        return state.samples.ravel()
    return np.concatenate([pack(part) for part in state])


def unpack(template, vector: np.ndarray):
    """The state shaped like ``template`` whose samples are ``vector`` (see :func:`pack`)."""
    if isinstance(template, InterfaceTrace):
        return template.with_samples(np.reshape(vector, template.samples.shape))
    parts, at = [], 0
    for part in template:
        size = pack(part).size
        parts.append(unpack(part, vector[at : at + size]))
        at += size
    return type(template)(parts)
