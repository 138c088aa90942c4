"""Volume integration along angle-deformation paths."""

import math

import pytest
from scipy.integrate import quad

from coxvol.poly_model import LabeledPolyhedron
from coxvol.volume import (DeformationPath, IdealEdge, NonCollapsingStart,
                           PathRealizationFailure, _Integrand, collapse_fraction,
                           default_path,
                           hyperbolic_triangle_area, monotonicity_probe,
                           orb_convention, schlafli_volume, segment_quadrature)


def test_triangle_area_identity():
    # the 2-dimensional analogue has a closed form
    cases = [(math.pi / 2, math.pi / 3, math.pi / 7),
             (0.3, 0.4, 0.5),
             (1.0, 1.0, 1.0)]
    for a, b, c in cases:
        assert hyperbolic_triangle_area(a, b, c) == pytest.approx(
            math.pi - a - b - c, abs=1e-15)


def test_collapse_fraction_lambert(lambert_cube):
    # all right angles already sit on the circuit boundary
    assert collapse_fraction(lambert_cube.base, lambert_cube.angles()) == 0.0


def test_collapse_fraction_prism(triangular_prism):
    # the triangle circuit 3*(pi/2 + s*(pi/4 - pi/2)) hits pi at s = 2/3
    s0 = collapse_fraction(triangular_prism.base, triangular_prism.angles())
    assert s0 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_default_path_endpoints(lambert_cube):
    path = default_path(lambert_cube)
    assert path.times == (0.0, 1.0)
    assert path.angles_at(1.0) == pytest.approx(lambert_cube.angles())
    start = path.angles_at(0.0)
    for e, n in lambert_cube.labels.items():
        if n == 2:
            assert start[e] == pytest.approx(math.pi / 2)
    assert set(path.varying_edges) == {e for e, n in lambert_cube.labels.items()
                                       if n == 3}


def test_zero_path_gives_zero_volume(lambert_cube):
    angles = {e: math.pi / 2 for e in lambert_cube.base.edges}
    path = DeformationPath.from_configs(lambert_cube.base, [angles, angles])
    res = schlafli_volume(None, path=path)
    assert res.volume == 0.0
    assert res.nodes == 0


def test_lambert_volume_and_doubling(lambert_cube):
    res = schlafli_volume(lambert_cube, tol=1e-8)
    assert 0.3 < res.volume < 0.35
    assert res.error_estimate < 1e-6
    doubled = orb_convention(res)
    assert doubled.doubled
    assert doubled.volume == pytest.approx(2 * res.volume, abs=0.0)
    assert orb_convention(doubled).volume == doubled.volume


def test_path_independence(lambert_cube):
    p = lambert_cube.base
    direct = schlafli_volume(lambert_cube, tol=1e-7)
    start = {e: math.pi / 2 for e in p.edges}
    mid = dict(start)
    for e, n in lambert_cube.labels.items():
        if n == 3:
            mid[e] = 0.45 * math.pi
    detour = DeformationPath.from_configs(
        p, [start, mid, lambert_cube.angles()], times=(0.0, 0.6, 1.0))
    other = schlafli_volume(None, path=detour, tol=1e-7)
    assert other.volume == pytest.approx(direct.volume, abs=1e-6)


def test_volume_decreases_with_larger_angles(lambert_cube):
    # a cube with a 4-label instead of a 3 has larger angles on that
    # orbit, hence smaller volume
    labels = dict(lambert_cube.labels)
    three = next(e for e, n in labels.items() if n == 3)
    labels[three] = 4
    sharper = LabeledPolyhedron(base=lambert_cube.base, labels=labels)
    v3 = schlafli_volume(lambert_cube, tol=1e-7).volume
    v4 = schlafli_volume(sharper, tol=1e-7).volume
    assert v4 > v3  # pi/4 < pi/3: angle shrank, volume grew


def test_monotonicity_probe_signs(lambert_cube):
    three = next(e for e, n in lambert_cube.labels.items() if n == 3)
    num, pred = monotonicity_probe(lambert_cube, three, 1e-3, tol=1e-7)
    assert num < 0 and pred < 0
    assert num == pytest.approx(pred, rel=0.05)
    assert monotonicity_probe(lambert_cube, three, 0.0) == (0.0, 0.0)


def test_pyramid_volume_with_ideal_apex(pyramid):
    res = schlafli_volume(pyramid, tol=1e-7)
    assert res.volume > 0.2
    assert res.error_estimate < 1e-5


def test_varying_ideal_edge_rejected(pyramid):
    p = pyramid.base
    target = pyramid.angles()
    start = dict(target)
    start[(0, 4)] = math.pi / 2 - 0.1  # an apex edge must stay constant
    path = DeformationPath.from_configs(p, [start, target])
    with pytest.raises(IdealEdge):
        schlafli_volume(None, path=path)


def test_ideal_trivalent_vertex_rejected(pyramid, cube_all2):
    # pyramid row (2,2,3,6) and a cube with a (3,3,3) vertex: the
    # ideal vertex's row must not end the path just short of the target
    labels = dict(pyramid.labels)
    labels[(0, 3)] = 6
    cube = cube_all2.base
    for lp in (LabeledPolyhedron(base=pyramid.base, labels=labels),
               LabeledPolyhedron(base=cube, labels={
                   e: 3 if 0 in e else 2 for e in cube.edges})):
        with pytest.raises(IdealEdge):
            schlafli_volume(lp)


def test_ideal_edge_refused_before_any_solve(pyramid, monkeypatch):
    from coxvol import realization

    calls = []
    solve_at = realization.solve_at

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_at(*args, **kwargs)

    monkeypatch.setattr(realization, "solve_at", counted)
    labels = dict(pyramid.labels)
    labels[(0, 3)] = 6  # pyramid row (2,2,3,6)
    with pytest.raises(IdealEdge):
        schlafli_volume(LabeledPolyhedron(base=pyramid.base, labels=labels))
    assert calls == []


def test_anchor_failure_is_path_realization_failure(lambert_cube, monkeypatch):
    from coxvol import realization
    from coxvol.realization import NonConvergence, PathRealizer

    def fail(*args, **kwargs):
        raise NonConvergence("Newton step stagnated", 1e-3)

    monkeypatch.setattr(realization, "solve_at", fail)
    with pytest.raises(PathRealizationFailure) as info:
        schlafli_volume(lambert_cube)
    assert info.value.t == PathRealizer.ANCHOR_TS[-1]
    assert "Newton step stagnated" in str(info.value)


def test_inadmissible_waypoint_reports_path_parameter(lambert_cube):
    # vertex 0 has angle sum 0.9*pi at the waypoint
    p = lambert_cube.base
    start = {e: math.pi / 2 for e in p.edges}
    mid = dict(lambert_cube.angles())
    for e in p.vertex_edges[0]:
        mid[e] = 0.3 * math.pi
    path = DeformationPath.from_configs(
        p, [start, mid, lambert_cube.angles()], times=(0.0, 0.6, 1.0))
    with pytest.raises(PathRealizationFailure) as info:
        schlafli_volume(None, path=path)
    assert 0.0 < info.value.t < 1.0


def test_noncollapsing_start_rejected(lambert_cube):
    p = lambert_cube.base
    target = lambert_cube.angles()
    mid = {e: (a + math.pi / 2) / 2 for e, a in target.items()}
    path = DeformationPath.from_configs(p, [mid, target])
    with pytest.raises(NonCollapsingStart):
        schlafli_volume(None, path=path)


def test_quadrature_error_estimate(lambert_cube):
    coarse = schlafli_volume(lambert_cube, tol=1e-5)
    fine = schlafli_volume(lambert_cube, tol=1e-9)
    assert abs(coarse.volume - fine.volume) <= max(coarse.error_estimate, 1e-7)
    assert fine.nodes >= coarse.nodes


def test_adaptive_quadrature_on_known_integral():
    # the per-segment rule of schlafli_volume, doubled until converged
    val, err = segment_quadrature(math.sin, 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert err < 1e-12


def test_accumulated_integral_derivative(lambert_cube):
    # d/dt of the running integral reproduces the integrand; this checks
    # the continuation cache gives a consistent, smooth integrand
    p = lambert_cube.base
    path = default_path(lambert_cube)
    f = _Integrand(p, path)
    h = 1e-4
    for t in (0.2, 0.35, 0.5, 0.65, 0.8):
        acc = lambda u: segment_quadrature(f, 0.0, u, 1e-10)[0]
        deriv = (acc(t + h) - acc(t - h)) / (2 * h)
        assert deriv == pytest.approx(f(t), rel=1e-6)


def _lob_quad(theta):
    """-int_0^theta log|2 sin u| du by adaptive quadrature, independent
    of coxvol.lobachevsky.  The function is odd and pi-periodic, so the
    argument is reduced to r in [-pi/2, pi/2]; on (0, |r|) the singular
    part log(2u) is integrated in closed form, leaving log(sin u / u)."""
    r = math.remainder(theta, math.pi)
    if r == 0.0:
        return 0.0
    x = abs(r)
    smooth, err = quad(lambda u: math.log(math.sin(u) / u), 0.0, x,
                       epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-11
    val = x * math.log(2.0 * x) - x + smooth
    return -val if r > 0 else val


def _kellerhals_lambert(alpha, beta, gamma):
    """Kellerhals' closed form for the Lambert cube with essential
    angles alpha, beta, gamma (Math. Ann. 1989)."""
    tans = [math.tan(x) for x in (alpha, beta, gamma)]
    K = sum(t * t for t in tans) + 1.0
    L = tans[0] * tans[1] * tans[2]
    theta = math.atan(math.sqrt((K + math.sqrt(K * K + 4.0 * L * L)) / 2.0))
    s = sum(_lob_quad(x + theta) - _lob_quad(x - theta) for x in (alpha, beta, gamma))
    return 0.25 * (s - _lob_quad(2.0 * theta) + 2.0 * _lob_quad(math.pi / 2 - theta))


@pytest.mark.parametrize("lmn", [(3, 3, 3), (3, 4, 5), (4, 4, 4), (3, 3, 8),
                                 (5, 6, 7), (8, 8, 8)])
def test_lambert_family_closed_form(lambert_cube, lmn):
    labels = dict(lambert_cube.labels)
    essential = sorted(e for e, n in labels.items() if n == 3)
    for e, n in zip(essential, lmn):
        labels[e] = n
    res = schlafli_volume(LabeledPolyhedron(base=lambert_cube.base, labels=labels))
    err = res.volume - _kellerhals_lambert(*(math.pi / n for n in lmn))
    assert abs(err) <= 1e-10
    assert abs(err) <= res.error_estimate


def test_pyramid_volume_pinned(pyramid):
    # agrees with an adaptive GL-10 integration of the same path to 1e-11
    res = schlafli_volume(pyramid)
    assert res.volume == pytest.approx(0.25096025083, abs=1e-9)
    # the value before the Gauss-Newton system was vectorized
    assert res.volume == pytest.approx(0.250960250836782, abs=1e-12)
