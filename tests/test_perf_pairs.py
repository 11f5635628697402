"""tools/perf_pairs.py: the per-metric verdict on fixed numbers, without running perfbench."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = perf_pairs  # its dataclass looks its module up there
_SPEC.loader.exec_module(perf_pairs)

METRICS = [
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sweeps", "unit": "count", "better": "lower", "bound": 0.05},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _runs(**columns):
    names = list(columns)
    return [dict(zip(names, values)) for values in zip(*columns.values())]


def test_medians_iqr_wins_and_the_bound():
    parent = _runs(solve_s=[1.0, 2.0, 3.0, 4.0, 5.0], sweeps=[10] * 5, rate=[10.0, 10.0, 10.0, 10.0, 10.0])
    change = _runs(solve_s=[0.5, 2.5, 3.5, 3.0, 5.0], sweeps=[11] * 5, rate=[9.5, 9.0, 10.0, 11.0, 9.2])
    solve, sweeps, rate = perf_pairs.summarize(METRICS, parent, change)

    # Medians 3 and 3; inclusive quartiles of 1..5 are 2 and 4; wins in pairs 1 and 4,
    # a tie in pair 5 counts for neither side.
    assert (solve.parent_median, solve.change_median, solve.parent_iqr) == (3.0, 3.0, 2.0)
    assert (solve.wins, solve.pairs, solve.worse) == (2, 5, False)
    # 11 against 10 is 10% worse, past a 5% bound; no pair won.
    assert (sweeps.parent_median, sweeps.change_median, sweeps.wins, sweeps.worse) == (10, 11, 0, True)
    # Higher is better: a median of 9.5 against 10 is 5% worse, inside a 10% bound.
    assert (rate.change_median, rate.wins, rate.worse) == (9.5, 1, False)
    assert sweeps.line() == (
        "sweeps: parent 10, change 11 (+10.0%), parent IQR 0, change wins 0/5, worse than the bound: yes"
    )


def test_one_pair_has_no_spread():
    (solve, *_) = perf_pairs.summarize(METRICS, _runs(solve_s=[2.0], sweeps=[3], rate=[1.0]),
                                       _runs(solve_s=[2.6], sweeps=[3], rate=[1.0]))
    assert (solve.parent_iqr, solve.wins, solve.worse) == (0.0, 0, True)
