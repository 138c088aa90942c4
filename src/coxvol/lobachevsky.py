"""High-precision Lobachevsky function and ideal tetrahedron volume.

lob(theta) = -integral_0^theta log|2 sin u| du.  The function is odd and
pi-periodic, so evaluation reduces to [0, pi/2], where the classical
zeta series

    lob(x) = x - x log(2x) + x * sum_{n>=1} zeta(2n)/(n(2n+1)) (x/pi)^{2n}

converges geometrically (ratio (x/pi)^2 <= 1/4).  Absolute accuracy is
around 1e-15; the defining integral, evaluated by adaptive quadrature,
is the normative reference and lives in the test suite.  ``lob`` takes
one angle; ``lob_array`` takes an array of them and sums the series as a
polynomial in (x/pi)^2, in groups of four terms.
"""

from __future__ import annotations

import math

import numpy as np

ANGLE_TOL = 1e-12  # slack allowed on ideal tetrahedron angles and their sum

_N_TERMS = 64
_POWERS = np.arange(1, _N_TERMS + 1)
# zeta(2n) = pi^(2n) / d_n in closed form for n = 1..6
_ZETA_EVEN_DENOMINATORS = (6.0, 90.0, 945.0, 9450.0, 93555.0, 638512875.0 / 691.0)


def _zeta_even(n_terms: int) -> np.ndarray:
    """zeta(2), zeta(4), ..., zeta(2 n_terms) to within a few ulp.

    From n = 7 on, the terms k < 10 are summed, smallest first, onto the
    Euler-Maclaurin tail of k >= 10 up to its B_2 term, which leaves an
    error below 1e-17; n = 1..6 take the closed forms.
    """
    cut = 10
    s = 2.0 * np.arange(1, n_terms + 1)
    z = cut ** (1.0 - s) / (s - 1.0) + 0.5 * cut ** -s + s / 12.0 * cut ** (-s - 1.0)
    for k in range(cut - 1, 0, -1):
        z = z + float(k) ** -s
    closed = len(_ZETA_EVEN_DENOMINATORS)
    z[:closed] = [math.pi ** (2 * n) / d for n, d in enumerate(_ZETA_EVEN_DENOMINATORS, 1)]
    return z


_ZETA_COEFF = _zeta_even(_N_TERMS) / (_POWERS * (2 * _POWERS + 1))
# lob_array's series: the first 24 terms, in six groups of four, each row
# the coefficients of q^(4j+1) .. q^(4j+4); at (x/pi)^2 <= 1/4 the terms
# past the 24th add less than 1e-17
_ZETA_GROUPS = _ZETA_COEFF[:24].reshape(6, 4)


def _lob_principal(x: float) -> float:
    """lob on [0, pi/2] via the zeta series."""
    if x == 0.0:
        return 0.0
    q = (x / math.pi) ** 2
    series = float(np.sum(_ZETA_COEFF * q ** _POWERS))
    return x - x * math.log(2.0 * x) + x * series


def lob(theta: float) -> float:
    """Lobachevsky function, absolute error well below 1e-12."""
    if not math.isfinite(theta):
        raise ValueError("lob requires a finite angle")
    # pi-periodicity puts the argument in [-pi/2, pi/2]; oddness fixes sign.
    r = math.remainder(theta, math.pi)
    if r < 0:
        return -_lob_principal(-r)
    return _lob_principal(r)


def lob_array(theta: np.ndarray) -> np.ndarray:
    """lob of every entry of a float array, within 1e-15 of ``lob``.

    fmod and one shift by a multiple of pi in {-1, 0, 1}, each exact, put
    each angle in [-pi/2, pi/2].  There the series, a polynomial in
    q = (x/pi)^2, is summed in groups of four terms: one matrix product
    gives each group's cubic in q, and Horner's rule in q^4 <= 1/256 adds
    the groups.  The angles must be finite.
    """
    r = np.fmod(np.ravel(theta), math.pi)
    r -= math.pi * np.rint(r / math.pi)
    x = np.abs(r)
    q = x / math.pi
    q *= q
    q2 = q * q
    groups = _ZETA_GROUPS @ np.stack([q, q2, q2 * q, q2 * q2])
    q4 = q2 * q2
    series = groups[-1]
    for g in groups[-2::-1]:
        series *= q4
        series += g
    # x (1 - log 2x + series), where x log 2x is 0 at x = 0
    series += 1.0
    series -= np.log(2.0 * np.where(x > 0.0, x, 0.5))
    series *= x
    return np.copysign(series, r).reshape(np.shape(theta))


def ideal_tetrahedron_volume(alpha: float, beta: float, gamma: float) -> float:
    """Volume lob(a)+lob(b)+lob(c) of the ideal tetrahedron with those
    dihedral angles; requires a+b+c = pi."""
    angles = (alpha, beta, gamma)
    if any(a < -ANGLE_TOL for a in angles):
        raise ValueError(f"angles must be nonnegative, got {angles}")
    if abs(sum(angles) - math.pi) > ANGLE_TOL:
        raise ValueError(
            f"angle sum {sum(angles)!r} differs from pi by more than {ANGLE_TOL}")
    return lob(alpha) + lob(beta) + lob(gamma)
