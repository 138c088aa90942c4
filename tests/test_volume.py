"""Volume integration along angle-deformation paths."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coxvol.andreev import check, default_regime
from coxvol.corpus import CORPUS, load
from coxvol.poly_model import LabeledPolyhedron
from coxvol.realization import RealizationError
from coxvol.volume import (COLLAPSE_CHECK_T, DeformationPath, IdealEdge, NonCollapsingStart,
                           PathRealizationFailure, _Integrand, collapse_fraction,
                           default_path,
                           hyperbolic_triangle_area, monotonicity_probe,
                           orb_convention, schlafli_volume, segment_quadrature,
                           VolumeError)


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
    path = default_path(lambert_cube.base, lambert_cube.angles())
    assert len(path.table) == 2
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
    res = schlafli_volume(path)
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
    detour = DeformationPath.from_configs(p, [start, mid, lambert_cube.angles()])
    other = schlafli_volume(detour, tol=1e-7)
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
        schlafli_volume(path)


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


@pytest.fixture
def newton_calls(monkeypatch):
    """The arguments of every ``realization._newton`` call made in the test."""
    from coxvol import realization

    calls = []
    newton = realization._newton

    def counted(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(realization, "_newton", counted)
    return calls


def test_ideal_edge_refused_before_any_solve(pyramid, newton_calls):
    labels = dict(pyramid.labels)
    labels[(0, 3)] = 6  # pyramid row (2,2,3,6)
    with pytest.raises(IdealEdge):
        schlafli_volume(LabeledPolyhedron(base=pyramid.base, labels=labels))
    assert newton_calls == []


@pytest.mark.parametrize("labels", [
    # the separating triangle's row sums to exactly pi
    "2,4,3,2,3,3,2,4,3", "6,6,3,4,2,6,2,6,2",
    # the same row sums to 3*pi/2
    "2,2,2,4,2,2,2,5,3",
])
def test_target_past_a_circuit_refused_before_any_solve(triangular_prism, newton_calls, labels):
    p = triangular_prism.base
    lp = LabeledPolyhedron(base=p, labels=dict(zip(p.edges, map(int, labels.split(",")))))
    assert not check(lp).realizable
    with pytest.raises(VolumeError, match="condition 3"):
        schlafli_volume(lp)
    assert newton_calls == []


@pytest.mark.parametrize("name", CORPUS)
def test_rejected_labelings_get_no_volume(name):
    # random labelings with labels 2..6; every one the admissibility
    # check rejects must end in a typed error, never in a volume
    p = load(name).base
    rng = np.random.default_rng(len(name))
    draws = [LabeledPolyhedron(base=p, labels=dict(zip(p.edges, labels.tolist())))
             for labels in rng.integers(2, 7, (40, len(p.edges)))]
    rejected = [lp for lp in draws if not check(lp, default_regime(p)).realizable]
    assert rejected
    for lp in rejected:
        with pytest.raises((VolumeError, RealizationError)):
            schlafli_volume(lp)


def test_one_system_per_polyhedron(monkeypatch):
    from coxvol import realization

    built = []

    class Counted(realization._System):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    monkeypatch.setattr(realization, "_System", Counted)
    lp = load("lambert_cube")  # fresh, so no system is kept on it yet
    schlafli_volume(lp)
    assert len(built) == 1


def test_anchor_failure_is_path_realization_failure(lambert_cube, monkeypatch):
    from coxvol import realization
    from coxvol.realization import NonConvergence, PathRealizer

    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise NonConvergence("Newton step stagnated", 1e-3)

    monkeypatch.setattr(realization, "solve_at", fail)
    with pytest.raises(PathRealizationFailure) as info:
        schlafli_volume(lambert_cube)
    assert len(calls) == 1  # one anchor, no retry at other path points
    assert info.value.t == PathRealizer.ANCHOR_T
    assert "Newton step stagnated" in str(info.value)


def test_failed_warm_step_raises_at_its_node(lambert_cube, monkeypatch):
    # the first node after the anchor fails: no smaller steps are tried
    from coxvol import realization
    from coxvol.realization import NonConvergence

    calls = []
    newton = realization._newton
    seed = realization._seed(lambert_cube.base)[None]

    def warm_fails(sys_, X0, targets):
        calls.append(not np.array_equal(X0, seed))
        if calls[-1]:
            raise NonConvergence("Newton iteration limit reached", 3e-3)
        return newton(sys_, X0, targets)

    monkeypatch.setattr(realization, "_newton", warm_fails)
    with pytest.raises(PathRealizationFailure) as info:
        schlafli_volume(lambert_cube)
    assert info.value.t == COLLAPSE_CHECK_T
    assert "3.000e-03" in str(info.value)
    assert calls == [False, True]


@pytest.mark.parametrize("ts,failing", [((0.45, 0.55, 0.95), 0.95),
                                         ((0.95, 0.45, 0.05, 0.55), 0.05)])
def test_failing_row_of_a_rule_raises_at_its_t(lambert_cube, monkeypatch, ts, failing):
    # from the anchor at 0.5, t = 0.45 and 0.55 converge in 3 steps and
    # t = 0.05 and 0.95 need more: with a 3-step limit the stack fails
    # at its smallest failing t, with that row's own residual
    from coxvol import realization
    from coxvol.realization import NonConvergence, solve_at

    path = default_path(lambert_cube.base, lambert_cube.angles())
    f = _Integrand(path)
    anchor = f.walker.cache[0.5][0]
    monkeypatch.setattr(realization, "MAX_NEWTON_ITERS", 3)
    with pytest.raises(NonConvergence) as alone:
        solve_at(path.polyhedron, path.angles_at(failing), warm_start=anchor)
    with pytest.raises(PathRealizationFailure) as info:
        f(list(ts))
    assert info.value.t == failing
    assert str(alone.value) in str(info.value)
    assert f"{alone.value.best_residual:.3e}" in str(info.value)


def test_lambert_volume_counts_its_solves(lambert_cube):
    # the anchor, the collapse check and one solve per node of the 8- and
    # 16-node rules
    res = schlafli_volume(lambert_cube)
    assert res.nodes == 24
    assert res.solves == res.nodes + 2
    assert res.newton_iters >= res.solves
    assert orb_convention(res).solves == res.solves


def test_inadmissible_waypoint_reports_path_parameter(lambert_cube):
    # vertex 0 has angle sum 0.9*pi at the waypoint
    p = lambert_cube.base
    start = {e: math.pi / 2 for e in p.edges}
    mid = dict(lambert_cube.angles())
    for e in p.vertex_edges[0]:
        mid[e] = 0.3 * math.pi
    path = DeformationPath.from_configs(p, [start, mid, lambert_cube.angles()])
    with pytest.raises(PathRealizationFailure) as info:
        schlafli_volume(path)
    assert 0.0 < info.value.t < 1.0


def test_noncollapsing_start_rejected(lambert_cube):
    p = lambert_cube.base
    target = lambert_cube.angles()
    mid = {e: (a + math.pi / 2) / 2 for e, a in target.items()}
    path = DeformationPath.from_configs(p, [mid, target])
    with pytest.raises(NonCollapsingStart):
        schlafli_volume(path)


def test_quadrature_error_estimate(lambert_cube):
    coarse = schlafli_volume(lambert_cube, tol=1e-5)
    fine = schlafli_volume(lambert_cube, tol=1e-9)
    assert abs(coarse.volume - fine.volume) <= max(coarse.error_estimate, 1e-7)
    assert fine.nodes >= coarse.nodes


def test_adaptive_quadrature_on_known_integral():
    # the per-segment rule of schlafli_volume, doubled until converged
    val, err = segment_quadrature(np.sin, 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert err < 1e-12


def test_accumulated_integral_derivative(lambert_cube):
    # d/dt of the running integral reproduces the integrand; this checks
    # the continuation cache gives a consistent, smooth integrand
    p = lambert_cube.base
    path = default_path(p, lambert_cube.angles())
    f = _Integrand(path)
    h = 1e-4
    for t in (0.2, 0.35, 0.5, 0.65, 0.8):
        acc = lambda u: segment_quadrature(f, 0.0, u, 1e-10)[0]
        deriv = (acc(t + h) - acc(t - h)) / (2 * h)
        assert deriv == pytest.approx(f([t])[0], rel=1e-6)


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


@pytest.mark.parametrize("lmn", list(itertools.product(range(3, 9), repeat=3)))
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


def test_all_right_angled_cube_sits_on_a_boundary(cube_all2):
    # every deviation from pi/2 is zero, so the 4-circuit rows stay at
    # their bound 2*pi along the whole path; without this check the
    # Euclidean cube would come out with volume 0.0
    with pytest.raises(VolumeError, match="target sits on an admissibility boundary"):
        schlafli_volume(cube_all2)


LAMBERT_ROW = [load("lambert_cube").angles()[e] for e in load("lambert_cube").base.edges]


@pytest.mark.parametrize("table,message", [
    ([LAMBERT_ROW], "at least two waypoints"),
    (LAMBERT_ROW * 2, "at least two waypoints"),
    ([row[1:] for row in (LAMBERT_ROW,) * 2], "one column per edge"),
    ([row + [1.0] for row in (LAMBERT_ROW,) * 2], "one column per edge"),
], ids=["one-waypoint", "flat", "missing-edge", "extra-edge"])
def test_deformation_path_rejects_bad_tables(lambert_cube, table, message):
    with pytest.raises(ValueError, match=message):
        DeformationPath(lambert_cube.base, table)


@pytest.mark.parametrize("change", [
    lambda cfg: cfg.pop(next(iter(cfg))),
    lambda cfg: cfg.update({(8, 9): 1.0}),
], ids=["missing-edge", "extra-edge"])
def test_from_configs_rejects_a_config_without_exactly_the_edges(lambert_cube, change):
    cfg = lambert_cube.angles()
    change(cfg)
    with pytest.raises(ValueError, match="exactly the polyhedron's edges"):
        DeformationPath.from_configs(lambert_cube.base, [lambert_cube.angles(), cfg])


def test_path_table_is_a_read_only_copy(lambert_cube):
    table = np.array([LAMBERT_ROW, LAMBERT_ROW])
    path = DeformationPath(lambert_cube.base, table)
    table[0, 0] = 0.0
    assert path.table[0, 0] == LAMBERT_ROW[0]
    assert table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        path.table[0, 0] = 0.0


@pytest.mark.parametrize("name", ["lambert_cube", "pyramid"])
def test_a_labeling_is_shorthand_for_its_default_path(name):
    lp = load(name)
    assert schlafli_volume(lp) == schlafli_volume(default_path(lp.base, lp.angles()))


def angles_by_segment(path, t):
    """Oracle: the angles at t from the two waypoints around t, one edge
    at a time in scalar floats."""
    n = len(path.table) - 1
    s = n * t
    k = min(int(s), n - 1)
    lam = s - k
    a, b = path.table[k].tolist(), path.table[k + 1].tolist()
    return {e: (1 - lam) * x + lam * y for e, x, y in zip(path.polyhedron.edges, a, b)}


def varying_by_loop(path):
    """Oracle: the varying edges by a loop over the waypoints."""
    first = path.table[0].tolist()
    varying = set()
    for row in path.table[1:].tolist():
        for e, x, y in zip(path.polyhedron.edges, first, row):
            if abs(y - x) > 1e-15:
                varying.add(e)
    return tuple(sorted(varying))


@st.composite
def paths_and_times(draw):
    p = draw(st.sampled_from([load("lambert_cube").base, load("pyramid").base]))
    n = draw(st.integers(2, 5))
    # an edge is held, nudged below or above the 1e-15 threshold, or moved
    moves = st.sampled_from([0.0, 5e-16, 2e-15]) | st.floats(-0.5, 0.5)
    start = {e: draw(st.floats(0.3, 1.6)) for e in p.edges}
    held = draw(st.lists(st.booleans(), min_size=len(p.edges), max_size=len(p.edges)))
    configs = [start] + [{e: start[e] + (0.0 if h else draw(moves))
                          for e, h in zip(p.edges, held)} for _ in range(n - 1)]
    path = DeformationPath.from_configs(p, configs)
    waypoint_ts = [i / (n - 1) for i in range(n)]
    ts = draw(st.lists(st.sampled_from(waypoint_ts) | st.floats(0.0, 1.0),
                       min_size=1, max_size=6))
    return path, ts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=paths_and_times())
def test_angle_rows_match_the_per_edge_oracles(case):
    path, ts = case
    for t in ts:
        assert path.angles_at(t) == angles_by_segment(path, t)
    assert path.varying_edges == varying_by_loop(path)
