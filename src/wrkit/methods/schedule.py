"""Stage schedules for the Dirichlet-Neumann sweep over a subdomain chain.

A schedule says in which order the subdomains solve within one iteration
and which boundary condition each subdomain imposes at its two x
boundaries. Three sweep arrangements are supported:

* A1 walks the chain left to right, one subdomain per stage; every solve
  after the first takes a Neumann condition on its left from the
  just-computed neighbor.
* A2 is red-black: all odd subdomains solve first (Dirichlet data from
  the previous iteration), then all even subdomains solve with Neumann
  data on both interface sides.
* A3 starts from the middle subdomain and moves outward in symmetric
  pairs; each pair takes Neumann data on its inner side and Dirichlet
  data on its outer side. For even counts the extra last subdomain is
  appended as a final Neumann-left stage.

A schedule is a tuple of stages, each a tuple of :class:`StageTask`.
Within a stage every task only reads data from strictly earlier stages
(or the previous iteration), so tasks of one stage can run in any order,
or concurrently, without changing a single bit of the result. Nothing
checks this at run time: ``test_schedules_are_well_formed`` in
``tests/test_methods.py`` checks, for every arrangement on 2 to 40
subdomains, that each Neumann side faces a neighbor of an earlier stage,
that each interface has exactly one Neumann side and that each subdomain
solves once.

Finite-step exactness on wave chains with per-subdomain time steps
depends on the arrangement. On the chain of acceptance check 08 (speeds
0.25, 2, 0.5, every subdomain at unit Courant number, so steps 0.4,
0.05, 0.2), three A3 sweeps drop the error by 3.1e-13: its fluxes flow
from the fine middle grid onto the coarser outer ones, whose nodes they
contain, so they are sampled. A1 and A2 leave 0.32 and 0.24 of the
error after three sweeps, because some of their fluxes are interpolated
from a coarse grid onto a finer one.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ..errors import UnsupportedCount
from ..grids import TraceKind

__all__ = ["Arrangement", "StageTask", "arrangement_schedule", "producer_map"]


class Arrangement(enum.Enum):
    """How the Dirichlet-Neumann sweep walks the subdomain chain.

    The values are the names a config's ``arrangement`` key takes.
    """

    A1 = "sequential"  # left to right
    A2 = "redblack"  # odd subdomains first, then even
    A3 = "outward"  # middle subdomain first, then outward pairs


class StageTask(NamedTuple):
    """One subdomain solve: 1-based index plus the condition at each x boundary.

    ``left`` and ``right`` are ``TraceKind.DIRICHLET`` or
    ``TraceKind.NEUMANN``; physical boundaries always carry the problem's
    Dirichlet data and are labeled DIRICHLET here as well.
    """

    subdomain: int
    left: TraceKind
    right: TraceKind


def arrangement_schedule(
    n_subdomains: int, arrangement: Arrangement
) -> tuple[tuple[StageTask, ...], ...]:
    """The stages of one sweep arrangement for ``n`` subdomains."""
    if n_subdomains < 2:
        raise UnsupportedCount(f"need at least 2 subdomains, got {n_subdomains}")
    n = n_subdomains
    D, N = TraceKind.DIRICHLET, TraceKind.NEUMANN

    if arrangement is Arrangement.A1:
        stages = [(StageTask(1, D, D),)]
        stages += [(StageTask(i, N, D),) for i in range(2, n + 1)]
    elif arrangement is Arrangement.A2:
        odd = tuple(StageTask(i, D, D) for i in range(1, n + 1, 2))
        even = tuple(StageTask(i, N, D if i == n else N) for i in range(2, n + 1, 2))
        stages = [odd, even]
    elif arrangement is Arrangement.A3:
        m = (n - 1) // 2  # the middle subdomain is m+1
        stages = [(StageTask(m + 1, D, D),)]
        for j in range(1, m + 1):
            stages.append((StageTask(m + 1 - j, D, N), StageTask(m + 1 + j, N, D)))
        if n % 2 == 0:
            stages.append((StageTask(n, N, D),))
    else:
        raise ValueError(f"unknown arrangement {arrangement!r}")

    return tuple(stages)


def producer_map(stages) -> dict[int, int]:
    """Which subdomain's solve refreshes the Dirichlet value at each interface.

    The refreshing subdomain is the one that imposes a Neumann condition
    at (its side of) the interface: its solution value there is new
    information, and the updated trace is read off that field.
    """
    producer: dict[int, int] = {}
    for stage in stages:
        for s, left, right in stage:
            if left is TraceKind.NEUMANN:
                producer[s - 1] = s
            if right is TraceKind.NEUMANN:
                producer[s] = s
    return producer
