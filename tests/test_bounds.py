"""Convergence envelopes and the in-house complementary error function.

The erfc oracle is mpmath at 30 significant digits; every closed-form
bound value is checked against an independent mpmath evaluation of the
same formula, plus the rounded literals used elsewhere in the suite.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from wrkit.bounds import (
    erfc_eval,
    heat_bound_equal,
    heat_bound_even,
    heat_bound_unequal,
    reflection_series,
    wave_steps_needed,
)
from wrkit.errors import EvenCount, OddCount, QDiverged

mpmath.mp.dps = 30


def erfc_oracle(x: float) -> float:
    return float(mpmath.erfc(mpmath.mpf(x)))


def q_oracle(h: float, nu: float, T: float) -> float:
    a = mpmath.mpf(h) / (2 * mpmath.sqrt(mpmath.mpf(nu) * T))
    total = 2 * mpmath.erfc(a)
    for i in range(400):
        term = mpmath.mpf(2) ** (i + 1) * mpmath.erfc(i * a)
        total += term
        if term < 1e-25 * total:
            return float(total)
    raise AssertionError("oracle series did not settle")


def test_erfc_at_zero():
    assert erfc_eval(0.0) == 1.0


def test_erfc_reflection():
    x = 0.7
    assert abs(erfc_eval(-x) - (2.0 - erfc_eval(x))) <= 1e-13


def test_erfc_reference_point():
    x = 1.0 / (2.0 * math.sqrt(2.0))
    assert erfc_eval(x) == pytest.approx(0.617075, abs=1e-6)
    assert abs(erfc_eval(x) - erfc_oracle(x)) <= 1e-12 * erfc_oracle(x)


def test_erfc_against_oracle_50_points():
    xs = np.linspace(-10.0, 10.0, 50)
    for x in xs:
        ref = erfc_oracle(float(x))
        assert abs(erfc_eval(float(x)) - ref) <= 1e-12 * abs(ref)


def test_erfc_extreme_arguments():
    assert erfc_eval(30.0) == 0.0
    assert erfc_eval(-30.0) == 2.0
    with pytest.raises(ValueError):
        erfc_eval(float("nan"))


def test_unequal_bound_reference_value():
    got = heat_bound_unequal(2, (1.0, 1.0, 1.0, 1.0, 1.0), 1.0, 2.0, 1)
    want = 3.0 * erfc_oracle(1.0 / (2.0 * math.sqrt(2.0)))
    assert got == pytest.approx(1.851, abs=1e-3)
    assert got == pytest.approx(want, rel=1e-12)


def test_unequal_bound_mixed_widths():
    got = heat_bound_unequal(2, (1.0, 0.5, 1.5, 1.0, 1.0), 1.0, 2.0, 2)
    want = 9.0 * erfc_oracle(2 * 0.5 / (2.0 * math.sqrt(2.0)))
    assert got == pytest.approx(5.554, abs=1e-3)
    assert got == pytest.approx(want, rel=1e-12)


def test_unequal_bound_starts_at_one():
    assert heat_bound_unequal(2, (1.0,) * 5, 1.0, 2.0, 0) == 1.0


def test_unequal_bound_parity_and_shape_errors():
    with pytest.raises(EvenCount):
        heat_bound_unequal(2, (1.0,) * 4, 1.0, 2.0, 1)
    with pytest.raises(ValueError):
        heat_bound_unequal(3, (1.0,) * 5, 1.0, 2.0, 1)
    with pytest.raises(ValueError):
        heat_bound_unequal(2, (1.0,) * 5, 1.0, 2.0, -1)


def test_even_bound_reference_values():
    got = heat_bound_even(1, (1.0,) * 4, 1.0, 2.0, 1)
    want = 3.0 * erfc_oracle(1.0 / (2.0 * math.sqrt(2.0)))
    assert got == pytest.approx(want, rel=1e-12)
    got6 = heat_bound_even(2, (1.0,) * 6, 1.0, 2.0, 1)
    want6 = 5.0 * erfc_oracle(1.0 / (2.0 * math.sqrt(2.0)))
    assert got6 == pytest.approx(want6, rel=1e-12)


def test_even_bound_rejects_odd_count():
    with pytest.raises(OddCount):
        heat_bound_even(2, (1.0,) * 5, 1.0, 2.0, 1)


def test_reflection_series_value():
    got = reflection_series(1.0, 1.0, 0.2)
    assert got == pytest.approx(2.695, abs=1e-3)
    assert got == pytest.approx(q_oracle(1.0, 1.0, 0.2), rel=1e-12)


def test_reflection_series_diverges_for_tiny_argument():
    with pytest.raises(QDiverged):
        reflection_series(1e-6, 1.0, 1.0)


def test_equal_bound_uses_min_of_q_and_multiplier():
    # Short window: Q = 2.6959 < 3, so Q is the equal-width multiplier.
    q = reflection_series(1.0, 1.0, 0.2)
    assert q < 3.0
    got = heat_bound_equal(5, 1.0, 1.0, 0.2, 2)
    want = q**2 * erfc_eval(2.0 / (2.0 * math.sqrt(0.2)))
    assert got == pytest.approx(want, rel=1e-12)
    # Long window: Q exceeds 2m-1 = 3 (or diverges), the multiplier wins.
    got100 = heat_bound_equal(5, 1.0, 1.0, 100.0, 2)
    want100 = 9.0 * erfc_eval(2.0 / (2.0 * math.sqrt(100.0)))
    assert got100 == pytest.approx(want100, rel=1e-12)


def test_equal_bound_rejects_unequal_and_even():
    with pytest.raises(EvenCount):
        heat_bound_equal(4, 1.0, 1.0, 2.0, 1)


def test_equal_bound_never_above_unequal():
    for T in (0.2, 2.0, 8.0):
        for k in range(26):
            eq = heat_bound_equal(5, 1.0, 1.0, T, k)
            uneq = heat_bound_unequal(2, (1.0,) * 5, 1.0, T, k)
            assert eq <= uneq * (1.0 + 1e-12)


def test_heat_bound_superlinearity():
    # The per-iteration contraction factor keeps shrinking; by k=20 it is
    # at least 10x smaller than at the start for short and medium windows.
    for T in (0.2, 2.0):
        b = [heat_bound_equal(5, 1.0, 1.0, T, k) for k in range(22)]
        first = b[1] / b[0]
        late = b[21] / b[20]
        assert late < first / 10.0
    # Long window: the factor still decreases, just not 10x by k=20.
    b8 = [heat_bound_equal(5, 1.0, 1.0, 8.0, k) for k in range(22)]
    assert b8[21] / b8[20] < b8[1] / b8[0]


@pytest.mark.parametrize("widths, nu_T, k", [
    ((1.0, 1.0, 1.5), 3150.0, 1100),  # 2^k overflows; erfc(9.8) is a float
    ((1.0, 1.0, 1.5), 578.4, 1443),  # 2^k overflows; erfc(30) underflows to 0
])
def test_envelope_past_the_float_range(widths, nu_T, k):
    # multiplier 2m - 3 + 2 h_max / h_2 = 2 with m = 1
    x = mpmath.mpf(k) / (2 * mpmath.sqrt(mpmath.mpf(nu_T)))
    ref = float(mpmath.mpf(2) ** k * mpmath.erfc(x))
    assert 1e-300 < ref < 1e300
    got = heat_bound_unequal(1, widths, 1.0, nu_T, k)
    assert abs(got - ref) <= 1e-9 * ref


def test_wave_steps_short_window():
    assert wave_steps_needed(0.5, (1.0, 0.5, 1.5, 1.0, 1.0), 1.0) == 2


def test_wave_steps_long_window():
    assert wave_steps_needed(5.0, (1.0, 0.5, 1.5, 1.0, 1.0), 1.0) == 11


def test_wave_steps_per_subdomain_speeds():
    assert wave_steps_needed(2.0, (2.0, 2.0, 2.0), (0.25, 2.0, 0.5)) == 3


def test_wave_steps_monotone_in_window():
    counts = [wave_steps_needed(T, (1.0, 0.5, 1.5), 1.0) for T in np.linspace(0.1, 6, 40)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_wave_steps_monotone_in_min_width():
    counts = [
        wave_steps_needed(2.0, (h, 1.0, 1.0), 1.0) for h in (0.1, 0.25, 0.5, 1.0)
    ]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_wave_steps_rejects_bad_inputs():
    with pytest.raises(ValueError):
        wave_steps_needed(0.0, (1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        wave_steps_needed(1.0, (1.0, -1.0), 1.0)
    with pytest.raises(ValueError):
        wave_steps_needed(1.0, (1.0, 1.0, 1.0), (1.0, 2.0))
