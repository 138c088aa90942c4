"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad

from coxvol import andreev
from coxvol.census import (AS_LISTED_CYCLIC, cube_three_threes, pyramid_census)
from coxvol.circuits import enumerate_circuits, separating_triangles, vertex_sides
from coxvol.haken import classify, is_compressible
from coxvol.lobachevsky import lob
from coxvol.poly_model import LabeledPolyhedron
from coxvol.realization import (_newton, _system, build_realization, dof_audit, realize,
                                solve_at)
from coxvol.volume import (DeformationPath, _Integrand, default_path, schlafli_volume,
                           segment_quadrature)


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_lambert_cube_volume(lambert_cube):
    t0 = time.perf_counter()
    res = schlafli_volume(lambert_cube, tol=1e-8)
    doubled = 2 * res.volume
    elapsed = time.perf_counter() - t0
    assert doubled == pytest.approx(0.648847, abs=2e-3)
    assert res.volume == pytest.approx(0.32442, abs=1e-3)
    assert elapsed <= 60.0
    report(1, f"doubled volume {doubled:.6f} (target 0.648847), "
              f"undoubled {res.volume:.6f}, {elapsed:.1f}s")


def test_criterion_2_circuit_counts(cube_all2, triangular_prism):
    t0 = time.perf_counter()
    cube_p = cube_all2.base
    quads = [c for c in enumerate_circuits(cube_p, 4) if c.prismatic]
    tris = [c for c in enumerate_circuits(cube_p, 3) if c.prismatic]
    prism_tris = separating_triangles(triangular_prism.base)
    elapsed = time.perf_counter() - t0
    assert len(quads) == 3
    assert len(tris) == 0
    assert len(prism_tris) == 1
    assert elapsed < 1.0
    report(2, f"cube: 3 prismatic 4-circuits, 0 prismatic 3-circuits; "
              f"prism: 1 separating triangle ({elapsed * 1e3:.0f}ms)")


def test_criterion_3_admissibility_gate(cube_all2, tetrahedron, lambert_cube):
    cube_rep = andreev.check(cube_all2)
    assert cube_rep.outcome == "rejected"
    c4 = cube_rep.conditions[3]
    assert not c4.passed and len(c4.witnesses) == 3
    from fractions import Fraction
    for circuit, s in c4.witnesses:
        assert circuit.prismatic and circuit.k == 4
        assert s == Fraction(2)  # sum exactly 2*pi

    tet_rep = andreev.check(tetrahedron)
    assert tet_rep.outcome == "rejected"
    assert tet_rep.reason == andreev.FACE_COUNT_TOO_SMALL

    assert andreev.check(lambert_cube).outcome == "realizable-compact"
    report(3, "all-2 cube rejected with 3 exact 2*pi circuit witnesses; "
              "tetrahedron FaceCountTooSmall; three-3 cube realizable-compact")


def test_criterion_4_three_threes(cube_all2):
    rep = cube_three_threes(cube_all2.base)
    assert rep.total_candidates == 220
    # admissibility alone admits adjacent 3s too (they realize with
    # larger volume); the distinguished set is the non-adjacent one
    assert len(rep.andreev_passing) == 56
    assert len(rep.selected) == 8
    assert len(rep.orbits) == 1
    assert rep.stabilizer_order == 6
    for triple in rep.selected:
        assert all(not set(a) & set(b) for a, b in combinations(triple, 2))
    # exact characterization: non-adjacent + one 3 per prismatic 4-circuit
    assert set(rep.selected) == set(rep.one_per_circuit)

    vols = []
    for triple in (rep.selected[0], rep.selected[3], rep.selected[7]):
        labels = {e: 2 for e in cube_all2.base.edges}
        for e in triple:
            labels[e] = 3
        lp = LabeledPolyhedron(base=cube_all2.base, labels=labels)
        vols.append(schlafli_volume(lp, tol=1e-8).volume)
    for a, b in combinations(vols, 2):
        assert a == pytest.approx(b, abs=1e-6)
    report(4, f"220 placements: 56 admissible, 8 non-adjacent forming 1 orbit "
              f"(stabilizer 6), = one-per-circuit set; volumes agree to 1e-6")


def test_criterion_5_large_small(cube_all2, tetrahedron, triangular_prism):
    t0 = time.perf_counter()
    cube_v = classify(cube_all2.base)
    assert cube_v.verdict == "Large"
    assert cube_v.witness.prismatic and cube_v.witness.k == 4
    side, other = vertex_sides(cube_all2.base, cube_v.witness)
    assert not is_compressible(cube_all2.base, cube_v.witness, side, other)
    assert not is_compressible(cube_all2.base, cube_v.witness, other, side)

    assert classify(tetrahedron.base).verdict == "Small"
    prism_v = classify(triangular_prism.base)
    assert prism_v.verdict == "Small"
    assert prism_v.witness_kind == "separating-triangle"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, f"cube Large (incompressible prismatic 4-circuit), tetrahedron "
              f"Small, prism Small via separating triangle ({elapsed:.2f}s)")


def test_criterion_6_log_sine_suite():
    def oracle(theta):
        if theta == 0.0:
            return 0.0
        sign = 1.0 if theta > 0 else -1.0
        hi = abs(theta)
        pts = [x for x in (math.pi / 2, math.pi) if 0.0 < x < hi]
        val, err = quad(lambda u: math.log(abs(2.0 * math.sin(u))), 0.0, hi,
                        points=pts or None, limit=200)
        assert err < 1e-11
        return -sign * val

    grid = np.linspace(-2 * math.pi, 2 * math.pi, 1000)
    for theta in grid:
        assert abs(lob(-theta) + lob(theta)) < 1e-10
        assert abs(lob(theta + math.pi) - lob(theta)) < 1e-10
        assert abs(lob(2 * theta) - 2 * lob(theta)
                   - 2 * lob(theta + math.pi / 2)) < 1e-10

    v6 = oracle(math.pi / 6)
    v3 = 3 * oracle(math.pi / 3)
    assert lob(math.pi / 6) == pytest.approx(v6, abs=1e-9)
    assert 3 * lob(math.pi / 3) == pytest.approx(v3, abs=1e-9)
    report(6, f"identities hold to 1e-10 on 1000 points; lob(pi/6)={v6:.7f}, "
              f"3*lob(pi/3)={v3:.7f} match quadrature to 1e-9")


def test_criterion_7_differential_self_consistency(lambert_cube):
    p = lambert_cube.base
    path = default_path(p, lambert_cube.angles())
    f = _Integrand(path)
    h = 1e-4
    for t in (0.2, 0.35, 0.5, 0.65, 0.8):
        acc = lambda u: -0.5 * segment_quadrature(f, 0.0, u, 1e-10)[0]
        deriv = (acc(t + h) - acc(t - h)) / (2 * h)
        assert deriv == pytest.approx(-0.5 * f([t])[0], rel=1e-6)

    direct = schlafli_volume(lambert_cube, tol=1e-8)
    start = {e: math.pi / 2 for e in p.edges}
    mid = dict(start)
    for e, n in lambert_cube.labels.items():
        if n == 3:
            mid[e] = 0.45 * math.pi
    # the detour is a chain of two segments, start -> mid -> target
    other = sum(schlafli_volume(DeformationPath.from_configs(p, ends), tol=1e-8).volume
                for ends in ((start, mid), (mid, lambert_cube.angles())))
    assert abs(other - direct.volume) <= 10 * 1e-8 + direct.error_estimate
    report(7, "dV/dt matches the edge-length sum at 5 points (1e-6 rel); two paths agree")


def test_criterion_8_solver(lambert_cube, triangular_prism, pyramid, cube_all2):
    for lp in (lambert_cube, triangular_prism, pyramid):
        r = realize(lp)
        assert r.residual <= 1e-10

    assert dof_audit(cube_all2.base)["dof"] == 0

    p = lambert_cube.base
    angles = lambert_cube.angles()
    X, _, iters = solve_at(p, angles)
    r1 = build_realization(p, angles, X, iters)
    rng = np.random.default_rng(11)
    sys_ = _system(p)
    X2 = _newton(sys_, X[None] + 1e-6 * rng.standard_normal((1,) + X.shape),
                 sys_.targets(angles)[None])[0][0]
    r2 = build_realization(p, angles, X2, 0)
    for fid in r1.normals:
        assert np.allclose(r1.normals[fid], r2.normals[fid], atol=1e-8)
    report(8, "residuals <= 1e-10 on all corpus realizations; cube DOF 0; "
              "perturbed restart reproduces the gauge-fixed solution to 1e-8")


def test_criterion_9_pyramid_table():
    diff1 = pyramid_census(6, convention=AS_LISTED_CYCLIC,
                           regime=andreev.ALLOW_IDEAL)
    diff2 = pyramid_census(6, convention=AS_LISTED_CYCLIC,
                           regime=andreev.ALLOW_IDEAL)
    assert diff1 == diff2  # deterministic
    assert all(r.admissible for r in diff1.published_rows)

    strict = pyramid_census(6, convention=AS_LISTED_CYCLIC,
                            regime=andreev.STRICT_COMPACT)
    missing = {r.row for r in strict.published_rows if not r.admissible}
    assert (2, 2, 3, 6) in missing
    assert (2, 2, 4, 4) in missing
    for r in strict.published_rows:
        assert r.reasons  # every row carries exact-arithmetic findings
        if r.row in missing:
            assert any("ideal" in s or "not < 3*pi" in s for s in r.reasons)
    report(9, "all 17 published rows admissible under (as-listed-cyclic, "
              "allow-ideal); strict regime flags (2,2,3,6) and (2,2,4,4) "
              "with exact reasons")
