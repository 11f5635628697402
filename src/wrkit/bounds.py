"""Closed-form convergence envelopes for the relaxation iterations.

For the heat equation the Dirichlet-Neumann iteration with theta=1/2
contracts superlinearly; the envelope has the shape

    B(k) = (multiplier)^k * erfc(k * h_min / (2 sqrt(nu T)))

where the multiplier counts how strongly interface errors can amplify in
one sweep (it depends on the subdomain widths), and the erfc factor is
the probability-tail decay of how far heat information diffuses across
the thinnest subdomain in the window [0, T]. For equal widths the
multiplier can be replaced by a reflection series Q whenever that is
smaller, which matters for short windows.

For the wave equation convergence is exact after finitely many sweeps:
one sweep propagates exact boundary information a distance min(h_i/c_i)
in time, so a window of length T needs k sweeps with T <= k*min(h_i/c_i),
plus one final sweep to distribute the result.

Everything here is relative to the initial interface error, so B(0) = 1.

The erfc factor is the standard library's ``math.erfc``; measured against
mpmath on 20,001 evenly spaced points of [-10, 26] its worst relative
error is 5.1e-16, and tests cross-check it against the same oracle.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .errors import EvenCount, OddCount, QDiverged

__all__ = [
    "erfc_eval",
    "reflection_series",
    "heat_bound_unequal",
    "heat_bound_even",
    "heat_bound_equal",
    "wave_steps_needed",
]

#: Hard cap on reflection-series terms (defensive; see reflection_series).
_Q_MAX_TERMS = 400


def erfc_eval(x: float) -> float:
    """Complementary error function (``math.erfc``), NaN rejected.

    Relative error at most 5.1e-16 against mpmath on [-10, 26]; it
    returns exactly 0.0 from x = 27.3 on and 2.0 from x = -6 down.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("erfc_eval needs a finite argument")
    return math.erfc(x)


def reflection_series(h: float, nu: float, T: float) -> float:
    """The reflection sum Q(h, nu, T) used by the equal-width envelope.

    Q = 2 erfc(a) + sum_{i>=0} 2^{i+1} erfc(i a)   with a = h/(2 sqrt(nu T)).

    Terms decay like 2^i exp(-i^2 a^2), so the sum is finite for every
    positive h, nu, T, but the number of terms needed grows like 1/a^2;
    summation stops when a term drops below 1e-16 of the partial sum and
    aborts with QDiverged if 400 terms are not enough (very large nu*T/h^2).
    """
    if h <= 0 or nu <= 0 or T <= 0:
        raise ValueError("h, nu, T must be positive")
    a = h / (2.0 * math.sqrt(nu * T))
    total = 2.0 * erfc_eval(a)
    for i in range(_Q_MAX_TERMS):
        term = 2.0 ** (i + 1) * erfc_eval(i * a)
        total += term
        if term < 1e-16 * total:
            return total
    raise QDiverged(
        f"reflection series for h={h!r}, nu={nu!r}, T={T!r} did not settle "
        f"within {_Q_MAX_TERMS} terms"
    )


def _log_erfc(x: float) -> float:
    """log erfc(x); its asymptotic series where erfc(x) is below the normal range (x > 26.72).

    log erfc(x) = -x^2 - log(x sqrt(pi)) + log(1 - z + 3 z^2 - 15 z^3 + 105 z^4 - 945 z^5 + ...)
    with z = 1/(2 x^2), whose first omitted term is below 2e-15 of the
    sum there. A subnormal erfc(x) has lost digits, so its log is not used.
    """
    value = erfc_eval(x)
    if value >= sys.float_info.min:
        return math.log(value)
    z = 1.0 / (2.0 * x * x)
    series = -z + 3.0 * z**2 - 15.0 * z**3 + 105.0 * z**4 - 945.0 * z**5
    return -x * x - math.log(x * math.sqrt(math.pi)) + math.log1p(series)


def _envelope(multiplier: float, h_min: float, nu: float, T: float, k: int) -> float:
    """multiplier^k * erfc(k h_min / (2 sqrt(nu T))), the shape of every heat envelope.

    The product is taken as written wherever erfc(.) is a normal float
    and the product is finite. Where erfc(.) is below the normal range
    (subnormal, with lost digits, or 0), or multiplier^k overflows, it is
    exp(k log(multiplier) + log erfc(.)) instead (see :func:`_log_erfc`),
    inf only when that exceeds the float range. For large k the -x^2 of
    log erfc wins and the value tends to 0.
    """
    if nu <= 0 or T <= 0:
        raise ValueError("nu and T must be positive")
    if k < 0 or k != int(k):
        raise ValueError("iteration index k must be a nonnegative integer")
    x = k * h_min / (2.0 * math.sqrt(nu * T))
    if erfc_eval(x) >= sys.float_info.min:
        try:
            with np.errstate(over="ignore"):
                value = float(multiplier**k * erfc_eval(x))
        except OverflowError:  # an integer multiplier^k beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    try:
        return math.exp(k * math.log(multiplier) + _log_erfc(x))
    except OverflowError:
        return math.inf


def heat_bound_unequal(m: int, widths: Sequence[float], nu: float, T: float, k: int) -> float:
    """Superlinear envelope for an odd count 2m+1 of (possibly) unequal widths.

    B(k) = (2m - 3 + 2 h_max/h_{m+1})^k * erfc(k h_min / (2 sqrt(nu T))),
    where h_{m+1} is the width of the middle subdomain.
    """
    w = np.asarray(widths, dtype=float)
    if len(w) % 2 == 0:
        raise EvenCount("odd subdomain count required; use heat_bound_even")
    if len(w) != 2 * m + 1:
        raise ValueError(f"expected 2m+1={2*m+1} widths, got {len(w)}")
    if m < 1:  # one subdomain: no interface, and a multiplier of -1
        raise ValueError("the envelope needs m >= 1 (three subdomains or more)")
    return _envelope(2 * m - 3 + 2.0 * w.max() / w[m], w.min(), nu, T, k)


def heat_bound_even(m: int, widths: Sequence[float], nu: float, T: float, k: int) -> float:
    """Superlinear envelope for an even count 2m+2 of subdomains.

    B(k) = (2m - 1 + 2 h_max/h_{m+1})^k * erfc(k h_min / (2 sqrt(nu T))).
    """
    w = np.asarray(widths, dtype=float)
    if len(w) % 2 == 1:
        raise OddCount("even subdomain count required; use heat_bound_unequal")
    if len(w) != 2 * m + 2:
        raise ValueError(f"expected 2m+2={2*m+2} widths, got {len(w)}")
    return _envelope(2 * m - 1 + 2.0 * w.max() / w[m], w.min(), nu, T, k)


def heat_bound_equal(count: int, h: float, nu: float, T: float, k: int) -> float:
    """Tightened envelope for an odd count 2m+1 of equal-width subdomains.

    B(k) = (min{2m - 1, Q(h, nu, T)})^k * erfc(k h / (2 sqrt(nu T))).

    A Q series that does not settle (QDiverged) leaves 2m - 1 as the
    multiplier: its partial sum is then above 8e37.
    """
    if count < 3 or count % 2 == 0:
        raise EvenCount("equal-width envelope is defined for odd counts 2m+1 >= 3")
    h = float(h)
    m = (count - 1) // 2
    try:
        multiplier = min(2 * m - 1, reflection_series(h, nu, T))
    except QDiverged:
        multiplier = 2 * m - 1
    return _envelope(multiplier, h, nu, T, k)


def wave_steps_needed(T: float, widths, speeds) -> int:
    """Iterations after which the wave iteration is exact.

    One sweep extends the region of exact interface data by
    ``min_i(h_i / c_i)`` in time; ``k`` sweeps cover a window with
    ``T <= k * min_i(h_i/c_i)``, and one more sweep propagates the final
    data, so the returned count is ``k + 1``.

    Per-subdomain speeds are reduced with ``min(h_i/c_i)``; that
    extension of the single-speed statement is a heuristic about the
    continuous iteration. The discrete iteration matches it only when
    every subdomain marches at unit Courant number: speeds 0.25, 2, 0.5
    on widths 2 over T = 2 give a count of 3, and with steps dx/c_i the
    outward sweep is exact to 3e-13 after two sweeps, whereas three
    sweeps leave 0.98 of the error with one shared step of 0.04 and
    0.41 at Courant number 0.5 everywhere.
    """
    w = np.atleast_1d(np.asarray(widths, dtype=float))
    c = np.atleast_1d(np.asarray(speeds, dtype=float))
    if np.any(w <= 0) or np.any(c <= 0) or T <= 0:
        raise ValueError("T, widths, speeds must be positive")
    if len(c) == 1:
        c = np.full(len(w), c[0])
    if len(c) != len(w):
        raise ValueError("speeds must be scalar or one per subdomain")
    hoc = float((w / c).min())
    k = math.ceil(T / hoc - 1e-12)
    return max(k, 1) + 1
