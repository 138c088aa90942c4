"""The log-sine integral and the ideal tetrahedron volume."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from coxvol.lobachevsky import ideal_tetrahedron_volume, lob


def lob_oracle(theta: float) -> float:
    """Direct adaptive quadrature of -integral_0^theta log|2 sin u| du."""
    if theta == 0.0:
        return 0.0
    sign = 1.0 if theta > 0 else -1.0
    hi = abs(theta)
    pts = [x for x in (math.pi / 2, math.pi, 3 * math.pi / 2) if 0.0 < x < hi]
    val, err = quad(lambda u: math.log(abs(2.0 * math.sin(u))), 0.0, hi,
                    points=pts or None, limit=200)
    assert err < 1e-11
    return -sign * val


@pytest.mark.parametrize("theta", [
    0.1, 0.3, math.pi / 6, math.pi / 4, 1.0, math.pi / 2 - 1e-3,
    2.0, math.pi - 0.2, 4.0, -0.7,
])
def test_matches_quadrature_oracle(theta):
    assert lob(theta) == pytest.approx(lob_oracle(theta), abs=1e-12)


def test_known_special_values():
    # both checked against the independent quadrature oracle, not a book
    assert lob(math.pi / 6) == pytest.approx(lob_oracle(math.pi / 6), abs=1e-13)
    assert 3 * lob(math.pi / 3) == pytest.approx(3 * lob_oracle(math.pi / 3), abs=1e-12)


def test_oddness():
    for theta in np.linspace(-3.0, 3.0, 101):
        assert lob(-theta) == pytest.approx(-lob(theta), abs=1e-14)


def test_pi_periodicity():
    for theta in np.linspace(0.0, math.pi, 101):
        assert lob(theta + math.pi) == pytest.approx(lob(theta), abs=1e-13)
        assert lob(theta - math.pi) == pytest.approx(lob(theta), abs=1e-13)


def test_duplication_identity():
    # lob(2t) = 2 lob(t) + 2 lob(t + pi/2)
    for theta in np.linspace(-1.5, 1.5, 101):
        lhs = lob(2 * theta)
        rhs = 2 * lob(theta) + 2 * lob(theta + math.pi / 2)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_zeros_at_multiples_of_half_pi():
    for k in range(-3, 4):
        assert lob(k * math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_maximum_at_pi_over_six():
    peak = lob(math.pi / 6)
    for theta in np.linspace(1e-3, math.pi - 1e-3, 400):
        assert lob(theta) <= peak + 1e-12


def test_ideal_tetrahedron_symmetry():
    a, b, c = 0.4, 1.1, math.pi - 1.5
    v = ideal_tetrahedron_volume(a, b, c)
    assert v == pytest.approx(ideal_tetrahedron_volume(b, c, a), abs=1e-15)
    assert v == pytest.approx(ideal_tetrahedron_volume(c, b, a), abs=1e-15)
    assert v > 0


def test_ideal_tetrahedron_regular_is_maximal():
    reg = ideal_tetrahedron_volume(math.pi / 3, math.pi / 3, math.pi / 3)
    assert reg == pytest.approx(3 * lob(math.pi / 3), abs=1e-15)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.uniform(0.05, math.pi - 0.1)
        b = rng.uniform(0.05, math.pi - a - 0.05)
        c = math.pi - a - b
        assert ideal_tetrahedron_volume(a, b, c) <= reg + 1e-12


def test_ideal_tetrahedron_rejects_bad_angle_sum():
    with pytest.raises(ValueError):
        ideal_tetrahedron_volume(1.0, 1.0, 1.0)


def test_zeta_coefficients_match_scipy():
    from scipy.special import zeta

    from coxvol import lobachevsky

    n = np.arange(1, lobachevsky._N_TERMS + 1)
    ref = np.array([zeta(2 * k) for k in n]) / (n * (2 * n + 1))
    assert np.max(np.abs(lobachevsky._ZETA_COEFF / ref - 1.0)) <= 1e-15


def test_lob_unchanged_with_scipy_coefficients(monkeypatch):
    # lob built on the local zeta values against lob built on scipy's
    from scipy.special import zeta

    from coxvol import lobachevsky

    grid = np.linspace(-2 * math.pi, 2 * math.pi, 1001)
    ours = [lob(t) for t in grid]
    n = np.arange(1, lobachevsky._N_TERMS + 1)
    monkeypatch.setattr(lobachevsky, "_ZETA_COEFF",
                        np.array([zeta(2 * k) for k in n]) / (n * (2 * n + 1)))
    for t, v in zip(grid, ours):
        assert abs(lob(t) - v) <= 1e-15
