"""Volumes: a labeling's orthoscheme sum, and Schlaefli integrals along
angle-deformation paths."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coxvol.andreev import ALLOW_IDEAL, REGIMES, STRICT_COMPACT, check, constraints, default_regime
from coxvol.census import PUBLISHED_PYRAMID_ROWS, enumerate_labelings
from coxvol.cli import main
from coxvol.corpus import CORPUS, load, loebell
from coxvol.lobachevsky import lob
from coxvol.poly_model import AbstractPolyhedron, LabeledPolyhedron, edge_key
from coxvol.realization import (LabelingRejected, Realization, RealizationError, edge_lengths,
                                realize)
from coxvol.volume import (QUAD_MAX_NODES, QUAD_START_NODES, DeformationPath, IdealEdge,
                           PathRealizationFailure, _Integrand, _squared_rule, orthoscheme_volume,
                           schlafli_volume, segment_quadrature, VolumeError)


def from_right_angles(p, target):
    """The segment on ``p`` from all right angles to the angles
    ``target``, a dict by edge.  On the Lambert cube, the pyramid and the
    cube's census rows it starts where the polyhedron collapses."""
    return DeformationPath(p, [[math.pi / 2] * len(p.edges), [target[e] for e in p.edges]])


def test_segment_from_right_angles_endpoints(lambert_cube):
    path = from_right_angles(lambert_cube.base, lambert_cube.angles())
    assert len(path.table) == 2
    assert path.angles_at(1.0) == pytest.approx(lambert_cube.angles())
    right = dict.fromkeys(lambert_cube.base.edges, math.pi / 2)
    assert path.angles_at(0.0) == pytest.approx(right)
    assert set(path.varying_edges) == {e for e, n in lambert_cube.labels.items() if n == 3}


def test_prism_segment_from_right_angles_crosses_its_triangle_bound(triangular_prism):
    # the triangle circuit 3*(pi/2 + t*(pi/4 - pi/2)) reaches pi at t = 2/3:
    # before it the segment is past the circuit's bound, after it inside
    p = triangular_prism.base
    path = from_right_angles(p, triangular_prism.angles())
    (row,) = [r for r in constraints(p) if r.condition == 3]
    cols = [p.edges.index(e) for e in row.edges]
    sums = path.angle_rows([0.0, 0.5, 2.0 / 3.0, 0.8, 1.0])[:, cols].sum(axis=1) / math.pi
    assert sums[2] == pytest.approx(row.bound, abs=1e-12)
    assert sums[0] > sums[1] > row.bound > sums[3] > sums[4]


def test_prism_segment_from_right_angles_is_refused(triangular_prism):
    # its anchor at t = 1/2 is past the triangle circuit's bound, so the
    # anchor's solve fails: a typed error, never a volume
    from coxvol.realization import PathRealizer

    path = from_right_angles(triangular_prism.base, triangular_prism.angles())
    with pytest.raises(PathRealizationFailure) as info:
        schlafli_volume(path)
    assert info.value.t == PathRealizer.ANCHOR_T


def test_zero_path_gives_zero_volume(lambert_cube):
    angles = {e: math.pi / 2 for e in lambert_cube.base.edges}
    path = DeformationPath.from_configs(lambert_cube.base, [angles, angles])
    res = schlafli_volume(path)
    assert res.volume == 0.0
    assert res.nodes == 0


def test_lambert_volume_and_doubling(lambert_cube, capsys):
    res = schlafli_volume(lambert_cube)
    assert 0.3 < res.volume < 0.35
    assert res.error_estimate < 1e-6
    # the doubling convention is the command line's: twice the volume and
    # twice its error, exactly
    assert main(["volume", "lambert_cube", "--doubled"]) == 0
    out = capsys.readouterr().out
    assert f"volume: {2 * res.volume:.17g}\n" in out
    assert f"error estimate: {2 * res.error_estimate:.6g}\n" in out
    assert "doubled=true" in out


def test_path_independence(lambert_cube):
    # a detour is a chain of segments: start -> mid -> target
    p = lambert_cube.base
    direct = schlafli_volume(lambert_cube)
    start = {e: math.pi / 2 for e in p.edges}
    mid = dict(start)
    for e, n in lambert_cube.labels.items():
        if n == 3:
            mid[e] = 0.45 * math.pi
    other = sum(schlafli_volume(DeformationPath.from_configs(p, ends), tol=1e-7).volume
                for ends in ((start, mid), (mid, lambert_cube.angles())))
    assert other == pytest.approx(direct.volume, abs=1e-6)


def test_volume_decreases_with_larger_angles(lambert_cube):
    # a cube with a 4-label instead of a 3 has larger angles on that
    # orbit, hence smaller volume
    labels = dict(lambert_cube.labels)
    three = next(e for e, n in labels.items() if n == 3)
    labels[three] = 4
    sharper = LabeledPolyhedron(base=lambert_cube.base, labels=labels)
    v3 = schlafli_volume(lambert_cube).volume
    v4 = schlafli_volume(sharper).volume
    assert v4 > v3  # pi/4 < pi/3: angle shrank, volume grew


def test_small_segment_matches_the_schlafli_differential(lambert_cube):
    # raising one 3-edge's angle by delta changes the volume by
    # -1/2 len delta to first order, len read off the realization
    three = next(e for e, n in lambert_cube.labels.items() if n == 3)
    delta = 1e-3
    perturbed = lambert_cube.angles()
    perturbed[three] += delta
    path = DeformationPath.from_configs(lambert_cube.base, [lambert_cube.angles(), perturbed])
    dv = schlafli_volume(path, tol=1e-7).volume
    pred = -0.5 * edge_lengths(realize(lambert_cube))[three] * delta
    assert dv < 0 and pred < 0
    assert dv == pytest.approx(pred, rel=0.05)


def test_pyramid_volume_with_ideal_apex(pyramid):
    res = schlafli_volume(pyramid)
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
    # pyramid row (2,2,3,6) and a cube with a (3,3,3) vertex: a segment
    # that varies an edge at the ideal vertex is refused, since the
    # vertex's row would end it just short of the target; the labelings'
    # own volumes come from their realizations, in the regime that admits
    # the vertex
    labels = dict(pyramid.labels)
    labels[(0, 3)] = 6
    row = LabeledPolyhedron(base=pyramid.base, labels=labels)
    cube = cube_all2.base
    corner = LabeledPolyhedron(base=cube, labels={e: 3 if 0 in e else 2 for e in cube.edges})
    for lp in (row, corner):
        with pytest.raises(IdealEdge):
            schlafli_volume(from_right_angles(lp.base, lp.angles()))
    res = schlafli_volume(row)
    assert abs(res.volume - 5 * lob(math.pi / 3) / 4) <= min(res.error_estimate, 1e-13)
    # the cube's default regime is strict, which refuses the ideal vertex
    with pytest.raises(VolumeError, match=r"labeling rejected \(condition 2\)"):
        schlafli_volume(corner)
    assert orthoscheme_volume(realize(corner, ALLOW_IDEAL)).volume > 0


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
    lp = LabeledPolyhedron(base=pyramid.base, labels=labels)
    with pytest.raises(IdealEdge):
        schlafli_volume(from_right_angles(lp.base, lp.angles()))
    assert newton_calls == []
    # the labeling itself has a volume: one solve and the orthoscheme sum
    res = schlafli_volume(lp)
    assert abs(res.volume - 5 * lob(math.pi / 3) / 4) <= min(res.error_estimate, 1e-13)
    assert len(newton_calls) == 1


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


def rejected_draws(name):
    """40 random labelings of a corpus polyhedron with labels 2..6, the
    ones its default regime rejects."""
    p = load(name).base
    rng = np.random.default_rng(len(name))
    draws = [LabeledPolyhedron(base=p, labels=dict(zip(p.edges, labels.tolist())))
             for labels in rng.integers(2, 7, (40, len(p.edges)))]
    return [lp for lp in draws if not check(lp, default_regime(p)).realizable]


@pytest.mark.parametrize("name", CORPUS)
def test_rejected_labelings_get_no_volume(name):
    # every random labeling the admissibility check rejects must end in a
    # typed error, never in a volume
    rejected = rejected_draws(name)
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
        schlafli_volume(from_right_angles(lambert_cube.base, lambert_cube.angles()))
    assert len(calls) == 1  # one anchor, no retry at other path points
    assert info.value.t == PathRealizer.ANCHOR_T
    assert "Newton step stagnated" in str(info.value)


def test_failed_warm_step_raises_at_its_node(lambert_cube, monkeypatch):
    # the first stack after the anchor fails at its smallest node, the
    # 16-node rule's first: no smaller steps are tried
    from coxvol import realization
    from coxvol.realization import NonConvergence

    calls = []
    newton = realization._newton
    path = from_right_angles(lambert_cube.base, lambert_cube.angles())
    anchor = realization._system(path.polyhedron).targets(path.angles_at(0.5))
    seed = realization._seed(path.polyhedron, anchor)[None]

    def warm_fails(sys_, X0, targets):
        calls.append(not np.array_equal(X0, seed))
        if calls[-1]:
            raise NonConvergence("Newton iteration limit reached", 3e-3)
        return newton(sys_, X0, targets)

    monkeypatch.setattr(realization, "_newton", warm_fails)
    with pytest.raises(PathRealizationFailure) as info:
        schlafli_volume(path)
    assert info.value.t == _squared_rule(16)[0][0] < _squared_rule(8)[0][0]
    assert "3.000e-03" in str(info.value)
    assert calls == [False, True]


@pytest.mark.parametrize("ts,failing", [((0.45, 0.55, 0.95), 0.95),
                                         ((0.95, 0.45, 0.05, 0.55), 0.05)])
def test_failing_row_of_a_rule_raises_at_its_t(lambert_cube, monkeypatch, ts, failing):
    # from the anchor at 0.5, t = 0.45 and 0.55 converge in 3 steps and
    # t = 0.05 and 0.95 need more: with a 3-step limit the stack fails
    # at its smallest failing t, with that row's own residual
    from coxvol import realization
    from coxvol.realization import NonConvergence

    path = from_right_angles(lambert_cube.base, lambert_cube.angles())
    f = _Integrand(path)
    anchor = f.walker.cache[0.5]
    monkeypatch.setattr(realization, "MAX_NEWTON_ITERS", 3)
    with pytest.raises(NonConvergence) as alone:
        sys_ = realization._system(path.polyhedron)
        realization._newton(sys_, anchor[None], sys_.targets(path.angles_at(failing))[None])
    with pytest.raises(PathRealizationFailure) as info:
        f(list(ts))
    assert info.value.t == failing
    assert str(alone.value) in str(info.value)
    assert f"{alone.value.best_residual:.3e}" in str(info.value)


def test_lambert_path_counts_its_solves(lambert_cube):
    # the anchor and one solve per node of the 8- and 16-node rules
    res = schlafli_volume(from_right_angles(lambert_cube.base, lambert_cube.angles()))
    assert res.nodes == 24
    assert res.solves == res.nodes + 1
    assert res.newton_iters >= res.solves


def test_lambert_path_makes_two_stacked_solves(lambert_cube, newton_calls):
    # the anchor alone, then the 8- and 16-node rules in one 24-row stack
    res = schlafli_volume(from_right_angles(lambert_cube.base, lambert_cube.angles()))
    assert [len(X0) for _, X0, _ in newton_calls] == [1, 24]
    assert res.solves == 25


def test_lambert_path_counts_its_passes(lambert_cube, monkeypatch):
    # a stacked solve costs its slowest row's Gauss-Newton passes, and
    # the passes of the anchor and the 24-row stack add up; newton_iters
    # adds every row's own count instead
    from coxvol import realization

    slowest = []
    newton = realization._newton

    def recorded(*args):
        X, rmax, steps = newton(*args)
        slowest.append(int(steps.max()))
        return X, rmax, steps

    monkeypatch.setattr(realization, "_newton", recorded)
    res = schlafli_volume(from_right_angles(lambert_cube.base, lambert_cube.angles()))
    assert res.passes == sum(slowest) == 15
    assert res.newton_iters == 129


def quadrature_by_rules(f, a, b, tol):
    """Oracle: segment_quadrature with one call of f per rule."""
    prev, n = None, QUAD_START_NODES
    while True:
        nodes, weights = _squared_rule(n)
        q = (b - a) * float(weights @ f(a + (b - a) * nodes))
        if prev is not None and (abs(q - prev) <= tol or n >= QUAD_MAX_NODES):
            return q, abs(q - prev)
        prev, n = q, 2 * n


@pytest.mark.parametrize("tol,sizes", [
    (1.0, [24]), (1e-12, [24, 32, 64]), (0.0, [24, 32, 64, 128, 256])])
def test_quadrature_stacks_its_first_two_rules(tol, sizes):
    # f gets the 8- and 16-node rules in one call, each ascending in t,
    # then one rule per call up to QUAD_MAX_NODES; (q, d) is the per-rule
    # loop's, bit for bit
    calls = []

    def f(t):
        calls.append(t)
        return np.sqrt(t - 0.5) * np.cos(10.0 * t)

    assert segment_quadrature(f, 0.5, 2.0, tol) == quadrature_by_rules(
        lambda t: np.sqrt(t - 0.5) * np.cos(10.0 * t), 0.5, 2.0, tol)
    assert [len(t) for t in calls] == sizes
    first = np.concatenate([0.5 + 1.5 * _squared_rule(n)[0] for n in (8, 16)])
    assert np.array_equal(calls[0], first)
    assert not np.all(np.diff(calls[0]) > 0)
    assert all(np.all(np.diff(t) > 0) for t in calls[1:])


def test_inadmissible_waypoint_reports_path_parameter(lambert_cube):
    # vertex 0 has angle sum 0.9*pi at the start of the segment and 4*pi/3
    # at its end, so it is compact at the target but not near the start
    p = lambert_cube.base
    mid = dict(lambert_cube.angles())
    for e in p.vertex_edges[0]:
        mid[e] = 0.3 * math.pi
    path = DeformationPath.from_configs(p, [mid, lambert_cube.angles()])
    with pytest.raises(PathRealizationFailure, match="vertex 0 is not compact") as info:
        schlafli_volume(path)
    # the refusal rests on geometry: vertex 0's angle sum is at most pi there
    angles = path.angle_rows([info.value.t])[0]
    assert 0.0 < info.value.t < 1.0
    assert sum(angles[p.edges.index(e)] for e in p.vertex_edges[0]) <= math.pi


def test_explicit_path_integrates_a_volume_difference(lambert_cube):
    # from a realized start, a path integrates V(end) - V(start)
    p = lambert_cube.base
    target = lambert_cube.angles()
    mid = {e: (a + math.pi / 2) / 2 for e, a in target.items()}
    step = schlafli_volume(DeformationPath.from_configs(p, [mid, target]))
    whole, part = schlafli_volume(lambert_cube), schlafli_volume(from_right_angles(p, mid))
    assert 0.0 < step.volume < whole.volume
    assert abs(step.volume - (whole.volume - part.volume)) <= \
        step.error_estimate + whole.error_estimate + part.error_estimate


def test_quadrature_error_estimate(lambert_cube):
    path = from_right_angles(lambert_cube.base, lambert_cube.angles())
    coarse = schlafli_volume(path, tol=1e-5)
    fine = schlafli_volume(path, tol=1e-9)
    assert abs(coarse.volume - fine.volume) <= max(coarse.error_estimate, 1e-7)
    assert fine.nodes >= coarse.nodes


def test_adaptive_quadrature_on_known_integral():
    # the rule of schlafli_volume, doubled until converged
    val, err = segment_quadrature(np.sin, 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert err < 1e-12


def test_accumulated_integral_derivative(lambert_cube):
    # d/dt of the running integral reproduces the integrand; this checks
    # the continuation cache gives a consistent, smooth integrand
    p = lambert_cube.base
    path = from_right_angles(p, lambert_cube.angles())
    f = _Integrand(path)
    # each varying edge's angle moves at the constant rate end - start
    a, b = path.table.tolist()
    assert [p.edges[k] for k in f.cols] == list(path.varying_edges)
    assert f.velocity.tolist() == [b[k] - a[k] for k in f.cols]
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


def lambert_with(lmn):
    """The bundled Lambert cube with its essential angles pi/l, pi/m, pi/n."""
    lp = load("lambert_cube")
    labels = dict(lp.labels)
    essential = sorted(e for e, n in labels.items() if n == 3)
    labels.update(zip(essential, lmn))
    return LabeledPolyhedron(base=lp.base, labels=labels)


@pytest.mark.parametrize("lmn", list(itertools.product(range(3, 9), repeat=3)))
def test_lambert_family_closed_form(lmn):
    # on a relabeled, face-reordered copy, so the seed's pinned face and
    # the edge order vary with the triple
    lp = relabeled(lambert_with(lmn), random.Random(100 * lmn[0] + 10 * lmn[1] + lmn[2]))
    res = schlafli_volume(lp)
    err = res.volume - _kellerhals_lambert(*(math.pi / n for n in lmn))
    assert abs(err) <= 1e-11
    assert abs(err) <= res.error_estimate


def vesnin_loebell(n):
    """Vesnin's closed form for the volume of right-angled L(n)."""
    theta = math.pi / 2 - math.acos(1.0 / (2.0 * math.cos(math.pi / n)))
    return n / 2 * (2 * _lob_quad(theta) + _lob_quad(theta + math.pi / n)
                    + _lob_quad(theta - math.pi / n) + _lob_quad(math.pi / 2 - 2 * theta))


def right_angled(p):
    return LabeledPolyhedron(base=p, labels=dict.fromkeys(p.edges, 2))


@pytest.mark.parametrize("n", range(5, 31))
def test_loebell_family_closed_form(n):
    res = schlafli_volume(right_angled(loebell(n)))
    err = res.volume - vesnin_loebell(n)
    assert abs(err) <= 1e-10
    assert abs(err) <= res.error_estimate


def test_a_labelings_volume_reports_one_solve_and_its_orthoschemes():
    lp = load("lambert_cube")  # fresh, so no realization is kept on it yet
    res = schlafli_volume(lp)
    r = realize(lp)
    assert (res.nodes, res.solves) == (4 * len(lp.base.edges), 1)
    assert res.newton_iters == res.passes == r.newton_iters > 0
    assert orthoscheme_volume(r) == res
    # the rounding floor: at least 1e-15 per orthoscheme
    assert res.error_estimate >= 1e-15 * res.nodes


def test_a_labeling_is_realized_once_per_regime(newton_calls):
    # realize keeps its realization on the labeling, one per regime, and
    # the volume reads the default regime's from there
    lp = load("lambert_cube")
    r = realize(lp)
    assert realize(lp) is r and realize(lp, default_regime(lp.base)) is r
    ideal = realize(lp, ALLOW_IDEAL)
    assert ideal is not r and realize(lp, ALLOW_IDEAL) is ideal
    res = schlafli_volume(lp)
    assert len(newton_calls) == 2
    assert res == orthoscheme_volume(r)


def test_pyramid_volume_pinned(pyramid):
    # agrees with an adaptive GL-10 integration of its segment from all
    # right angles to 1e-11
    res = schlafli_volume(pyramid)
    assert res.volume == pytest.approx(0.25096025083, abs=1e-9)
    # the 1-D oracle's value, pyramid_oracle((2, 2, 3, 4)), met within the
    # volume's own estimate
    assert abs(res.volume - 0.2509602508352995) <= min(res.error_estimate, 1e-11)


@pytest.mark.parametrize("lmn", [(8, 3, 6), (8, 3, 7)])
def test_warm_starts_that_do_not_extrapolate_reach_kellerhals(lmn):
    # a tangent predictor in u, extrapolating past the cached points,
    # sent these triples' segments from all right angles to the Newton
    # iteration limit;
    # interpolated starts reach the closed form within the integral's own
    # estimate at a tol that runs the 32-node rule from many cached
    # neighbours
    lp = lambert_with(lmn)
    res = schlafli_volume(from_right_angles(lp.base, lp.angles()), tol=1e-10)
    assert res.nodes == 56
    err = res.volume - _kellerhals_lambert(*(math.pi / n for n in lmn))
    assert abs(err) <= min(res.error_estimate, 1e-10)


PYRAMID_BASE = ((0, 1), (1, 2), (2, 3), (0, 3))  # the base square's edges in cyclic order


def pyramid_oracle(row):
    """Oracle: the pyramid with its apex at infinity, right-angled apex
    edges and base labels ``row`` in cyclic order has volume
    sum_i f(c_i, c_i+1), with c_i = cos(pi/n_i) and
    f(x, y) = 1/2 int_0^asin(x) artanh(y / cos phi) dphi."""
    c = [math.cos(math.pi / n) for n in row]
    total = 0.0
    for x, y in zip(c, c[1:] + c[:1]):
        # epsabs=1e-15 is below what quad can certify and warns
        val, err = quad(lambda phi: math.atanh(y / math.cos(phi)), 0.0, math.asin(x),
                        epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-13
        total += 0.5 * val
    return total


# the published rows whose base vertices are all compact: 1/a + 1/b > 1/2
# for every two cyclically adjacent labels
COMPACT_BASE_ROWS = [row for row in PUBLISHED_PYRAMID_ROWS if all(
    Fraction(1, a) + Fraction(1, b) > Fraction(1, 2) for a, b in zip(row, row[1:] + row[:1]))]


def test_pyramid_rows_match_the_one_dimensional_oracle(pyramid):
    # the paper's second result: all 17 published rows, ideal base
    # vertices included, each realized in the pyramid's regime, which
    # admits ideal vertices
    assert len(PUBLISHED_PYRAMID_ROWS) == 17 and len(COMPACT_BASE_ROWS) == 15
    vols = {}
    # and the two rows of the fourth identity, each with an ideal base vertex
    for row in PUBLISHED_PYRAMID_ROWS + ((2, 3, 3, 6), (3, 3, 3, 6)):
        labels = dict(pyramid.labels)
        labels.update(zip(PYRAMID_BASE, row))
        res = vols[row] = schlafli_volume(LabeledPolyhedron(base=pyramid.base, labels=labels))
        err = res.volume - pyramid_oracle(row)
        assert abs(err) <= 1e-12, row
        assert abs(err) <= res.error_estimate, row
    # additivity: rows built from copies of smaller ones
    for big, small, k in (((2, 3, 3, 3), (2, 2, 3, 3), 2), ((3, 3, 3, 3), (2, 2, 3, 3), 4),
                          ((3, 4, 3, 4), (2, 2, 3, 4), 4), ((3, 3, 3, 6), (2, 3, 3, 6), 2)):
        a, b = vols[big], vols[small]
        assert abs(a.volume - k * b.volume) <= a.error_estimate + k * b.error_estimate, big
        assert abs(a.volume - k * b.volume) <= 1e-11, big
    # closed forms in the Lobachevsky function, met by the oracle to
    # 1e-13, and by every sum within its estimate and 1e-12
    quarter, third = lob(math.pi / 4), lob(math.pi / 3)
    for row, closed in (((2, 2, 3, 3), quarter / 3), ((2, 3, 3, 3), 2 * quarter / 3),
                        ((3, 3, 3, 3), 4 * quarter / 3), ((2, 2, 4, 4), quarter),
                        ((2, 2, 3, 6), 5 * third / 4)):
        assert abs(pyramid_oracle(row) - closed) <= 1e-13, row
        assert abs(vols[row].volume - closed) <= min(vols[row].error_estimate, 1e-12), row
    assert abs(pyramid_oracle((3, 3, 3, 6)) - 2 * pyramid_oracle((2, 3, 3, 6))) <= 1e-13


def test_segment_out_of_an_ideal_base_row(pyramid, newton_calls):
    # (2,2,3,6) has an ideal base vertex at the end of edge (0,3); the
    # segment to (2,2,3,5) varies only that edge, which is compact at
    # its end, and integrates the oracle's difference
    def angles(row):
        labels = dict(pyramid.labels)
        labels.update(zip(PYRAMID_BASE, row))
        return LabeledPolyhedron(base=pyramid.base, labels=labels).angles()

    ends = [angles((2, 2, 3, 6)), angles((2, 2, 3, 5))]
    res = schlafli_volume(DeformationPath.from_configs(pyramid.base, ends))
    expected = pyramid_oracle((2, 2, 3, 5)) - pyramid_oracle((2, 2, 3, 6))
    assert expected == pytest.approx(-0.0905651271399, abs=1e-12)
    assert abs(res.volume - expected) <= res.error_estimate
    # the reverse segment ends at the ideal vertex: refused before any solve
    newton_calls.clear()
    with pytest.raises(IdealEdge):
        schlafli_volume(DeformationPath.from_configs(pyramid.base, ends[::-1]))
    assert newton_calls == []


def test_all_right_angled_cube_sits_on_a_boundary(cube_all2, newton_calls):
    # the 4-circuit rows sit at their bound 2*pi: the Euclidean cube,
    # refused by those rows before any solve
    with pytest.raises(VolumeError, match=r"labeling rejected \(condition 4\)"):
        schlafli_volume(cube_all2)
    assert newton_calls == []


LAMBERT_ROW = [load("lambert_cube").angles()[e] for e in load("lambert_cube").base.edges]


@pytest.mark.parametrize("table", [
    [LAMBERT_ROW],
    LAMBERT_ROW * 2,
    [LAMBERT_ROW] * 3,
    [row[1:] for row in (LAMBERT_ROW,) * 2],
    [row + [1.0] for row in (LAMBERT_ROW,) * 2],
], ids=["one-row", "flat", "three-rows", "missing-edge", "extra-edge"])
def test_deformation_path_rejects_bad_tables(lambert_cube, table):
    with pytest.raises(ValueError, match="two rows, start and end, one column per edge"):
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
def test_a_labelings_volume_matches_its_segment_from_right_angles(name):
    # the two backends: the orthoscheme sum of one realization, and the
    # Schlaefli integral along the segment from all right angles, where
    # the polyhedron collapses
    lp = load(name)
    labeled = schlafli_volume(lp)
    explicit = schlafli_volume(from_right_angles(lp.base, lp.angles()))
    assert abs(labeled.volume - explicit.volume) <= labeled.error_estimate + explicit.error_estimate
    assert (labeled.nodes, labeled.solves) == (4 * len(lp.base.edges), 1)
    assert explicit.solves == explicit.nodes + 1


PATH_BASES = [load("lambert_cube").base, load("pyramid").base]


def angles_by_edge(path, t):
    """Oracle: the angles at t from the start and end rows, one edge at a
    time in scalar floats."""
    a, b = path.table.tolist()
    return {e: (1 - t) * x + t * y for e, x, y in zip(path.polyhedron.edges, a, b)}


def varying_by_loop(path):
    """Oracle: the varying edges by a loop over the edges."""
    a, b = path.table.tolist()
    return tuple(e for e, x, y in zip(path.polyhedron.edges, a, b) if abs(y - x) > 1e-15)


@st.composite
def paths_and_times(draw):
    p = draw(st.sampled_from(PATH_BASES))
    # an edge is held, nudged below or above the 1e-15 threshold, or moved
    moves = st.sampled_from([0.0, 5e-16, 2e-15]) | st.floats(-0.5, 0.5)
    start = {e: draw(st.floats(0.3, 1.6)) for e in p.edges}
    end = {e: start[e] + draw(moves) for e in p.edges}
    path = DeformationPath.from_configs(p, [start, end])
    ts = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                       min_size=1, max_size=6))
    return path, ts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=paths_and_times())
def test_angle_rows_match_the_per_edge_oracles(case):
    path, ts = case
    for t in ts:
        assert path.angles_at(t) == angles_by_edge(path, t)
    p = path.polyhedron
    rows = path.angle_rows(ts).tolist()
    assert [dict(zip(p.edges, row)) for row in rows] == [angles_by_edge(path, t) for t in ts]
    assert path.varying_edges == varying_by_loop(path)


def test_lattice_edges_add_up(cube_all2):
    # ROADMAP item 4's cross-check: along a one-label edge a -> b between
    # admissible labelings, V(a) + (V(b) - V(a)) = V(b)
    p = cube_all2.base
    rows = enumerate_labelings(p, 4)
    rng = np.random.default_rng(4)
    edges = []
    while len(edges) < 20:
        a = dict(zip(p.edges, rows[rng.integers(len(rows))].labels))
        e = p.edges[rng.integers(len(p.edges))]
        b = {**a, e: int(rng.choice([n for n in (2, 3, 4) if n != a[e]]))}
        lb = LabeledPolyhedron(base=p, labels=b)
        if check(lb).realizable:
            edges.append((LabeledPolyhedron(base=p, labels=a), lb))
    for la, lb in edges:
        va, vb = schlafli_volume(la), schlafli_volume(lb)
        dv = schlafli_volume(DeformationPath.from_configs(p, [la.angles(), lb.angles()]))
        assert abs(va.volume + dv.volume - vb.volume) <= \
            va.error_estimate + dv.error_estimate + vb.error_estimate, (la.labels, lb.labels)


def relabeled(lp, rng):
    """``lp`` with its vertex ids permuted, its faces shuffled and each
    face's cycle rotated, its labels carried along."""
    p = lp.base
    image = dict(zip(p.vertices, rng.sample(p.vertices, len(p.vertices))))
    order = list(range(len(p.faces)))
    rng.shuffle(order)
    faces = []
    for fid in order:
        f, r = p.faces[fid], rng.randrange(len(p.faces[fid]))
        faces.append(tuple(image[v] for v in f[r:] + f[:r]))
    q = AbstractPolyhedron(
        name=p.name, faces=tuple(faces),
        outer_face=None if p.outer_face is None else order.index(p.outer_face),
        ideal_candidates=frozenset(image[v] for v in p.ideal_candidates))
    return LabeledPolyhedron(base=q, labels={edge_key(image[a], image[b]): n
                                             for (a, b), n in lp.labels.items()})


REALIZABLE_CORPUS = [name for name in CORPUS if check(load(name), default_regime(load(name).base)).realizable]
RELABEL_TARGETS = st.one_of(
    st.sampled_from(REALIZABLE_CORPUS).map(load),
    st.tuples(*[st.integers(3, 8)] * 3).map(lambert_with),
    st.integers(5, 12).map(lambda n: right_angled(loebell(n))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lp=RELABEL_TARGETS, seed=st.integers(0, 2**16))
def test_volume_is_unchanged_by_relabeling(lp, seed):
    # another seed, edge order and gauge: the same polyhedron
    a = schlafli_volume(lp)
    b = schlafli_volume(relabeled(lp, random.Random(seed)))
    assert abs(a.volume - b.volume) <= a.error_estimate + b.error_estimate
    assert a.nodes == b.nodes


def census_rows(name, max_label, regime):
    p = load(name).base
    return [LabeledPolyhedron(base=p, labels=dict(zip(p.edges, row.labels)))
            for row in enumerate_labelings(p, max_label, regime)]


def published_pyramid_row(row):
    pyramid = load("pyramid")
    return LabeledPolyhedron(base=pyramid.base, labels={**pyramid.labels, **dict(zip(PYRAMID_BASE, row))})


def realize_outcome(lp):
    """The class of what ``realize`` makes of ``lp`` in its default
    regime: a Realization, LabelingRejected or another RealizationError."""
    try:
        realize(lp)
    except LabelingRejected:
        return LabelingRejected
    except RealizationError as exc:
        return type(exc)
    return Realization


OUTCOME_ROWS = ([lp for regime in REGIMES for lp in census_rows("cube_all2", 3, regime)]
                + census_rows("triangular_prism", 4, STRICT_COMPACT)
                + [published_pyramid_row(row) for row in PUBLISHED_PYRAMID_ROWS]
                + [lp for name in CORPUS for lp in rejected_draws(name)])


def test_outcome_rows_reach_both_outcomes():
    # the cube's ideal-regime rows with an ideal vertex are rejected in its
    # default regime, the strict one
    outcomes = {realize_outcome(lp) for lp in OUTCOME_ROWS}
    assert outcomes == {Realization, LabelingRejected}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(lp=st.sampled_from(OUTCOME_ROWS), seed=st.integers(0, 2**16))
def test_realize_outcome_is_unchanged_by_relabeling(lp, seed):
    # vertex ids, face order and face rotations move; whether the labeling
    # realizes, is rejected or fails otherwise does not
    assert realize_outcome(relabeled(lp, random.Random(seed))) is realize_outcome(lp)


CUBE_ML4 = [row.labels for row in enumerate_labelings(load("cube_all2").base, 4)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(labels=st.sampled_from(CUBE_ML4))
def test_orthoscheme_sum_matches_the_quadrature_on_cube_rows(labels):
    # the second backend on the cube's strict census rows at max-label 4,
    # along the segment from all right angles, where the cube collapses
    p = load("cube_all2").base
    lp = LabeledPolyhedron(base=p, labels=dict(zip(p.edges, labels)))
    a = schlafli_volume(lp)
    b = schlafli_volume(from_right_angles(p, lp.angles()))
    assert abs(a.volume - b.volume) <= 1e-10
    assert abs(a.volume - b.volume) <= a.error_estimate + b.error_estimate
