"""Face-plane solver in the hyperboloid model."""

import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxvol import cli, corpus, realization
from coxvol.andreev import (ALLOW_IDEAL, COMPACT, IDEAL, INADMISSIBLE, STRICT_COMPACT, check,
                            default_regime)
from coxvol.census import enumerate_labelings
from coxvol.corpus import CORPUS, load
from coxvol.poly_model import (AbstractPolyhedron, LabeledPolyhedron, edge_key,
                               serialize_polyhedron)
from coxvol.realization import (METRIC, RESIDUAL_TOL, PathRealizer, dof_audit, edge_lengths,
                                mdot, realize, solve_at, build_realization,
                                DegenerateVertex, LabelingRejected, NonConvergence,
                                RealizationError, _System,
                                _cofactors, _compute_vertices, _null_vectors)
from coxvol.volume import DeformationPath, default_path, schlafli_volume


def warm_solve(p, angles, X0):
    """One Newton solve of ``p``'s system at ``angles`` from the stacked
    normals X0: (X, max residual, iterations), as ``solve_at`` returns them."""
    sys_ = realization._system(p)
    X, rmax, iters = realization._newton(sys_, X0[None], sys_.targets(angles)[None])
    return X[0], float(rmax[0]), int(iters[0])


def gram_residual(r):
    """Recheck the realized Gram entries independently of the solver."""
    p = r.polyhedron
    worst = 0.0
    for fid, e in r.normals.items():
        worst = max(worst, abs(mdot(e, e) - 1.0))
    for (a, b), fs in p.edge_faces.items():
        fa, fb = fs
        target = -math.cos(r.angles[(a, b)])
        worst = max(worst, abs(mdot(r.normals[fa], r.normals[fb]) - target))
    return worst


def test_lambert_cube_realization(lambert_cube):
    r = realize(lambert_cube)
    assert r.residual <= 1e-10
    assert gram_residual(r) <= 1e-10
    assert r.dof_audit == {"unknowns": 24, "constraints": 18, "gauge": 6, "dof": 0}
    for v in r.polyhedron.vertices:
        vec, kind = r.vertices[v]
        assert kind == "compact"
        assert mdot(vec, vec) == pytest.approx(-1.0, abs=1e-8)
        assert vec[0] > 0  # future sheet


def test_realize_reports_newton_iterations(monkeypatch):
    # realize checks the labeling once, then makes one cold solve at the
    # labeling's own angles, and reports that solve's iterations; a fresh
    # labeling, since realize keeps its realization on the labeling
    lambert_cube = load("lambert_cube")
    checks, solves = [], []
    check_, solve = realization.andreev.check, realization.solve_at

    def counted_check(lp, regime):
        checks.append(lp)
        return check_(lp, regime)

    def counted_solve(p, angles):
        out = solve(p, angles)
        solves.append((angles, out[2]))
        return out

    monkeypatch.setattr(realization.andreev, "check", counted_check)
    monkeypatch.setattr(realization, "solve_at", counted_solve)
    r = realize(lambert_cube)
    assert checks == [lambert_cube]
    [(angles, iters)] = solves
    assert angles == lambert_cube.angles()
    assert r.newton_iters == iters > 0


def test_realization_imports_nothing_from_volume(imported_modules):
    # volume imports realization; an import the other way, even one inside
    # a function, would bring the cycle back
    imported = imported_modules(realization)
    assert "coxvol.andreev" in imported
    assert not [m for m in imported if m == "coxvol.volume" or m.startswith("coxvol.volume.")]


def test_path_realizer_is_deterministic(lambert_cube):
    # requests in a fixed order give bit-identical solutions
    path = default_path(lambert_cube.base, lambert_cube.angles())
    ts = (0.9, 0.1, 0.55, 1e-3, 0.3, 0.95)
    runs = []
    for _ in range(2):
        walker = PathRealizer(path)
        runs.append([walker.solution_at(t).copy() for t in ts])
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def interpolated_start(cache, t):
    """Oracle: the warm start for an uncached t from ``cache`` (t -> X),
    one t at a time in scalar floats: between two cached points, their
    solutions interpolated linearly in u = sqrt(t), else the nearer end."""
    below = [s for s in cache if s < t]
    above = [s for s in cache if s > t]
    if not below or not above:
        return cache[max(below) if below else min(above)]
    xa, xb = cache[max(below)], cache[min(above)]
    ua, ub = math.sqrt(max(below)), math.sqrt(min(above))
    w = (math.sqrt(t) - ua) / (ub - ua)
    return xa + w * (xb - xa)


def test_warm_start_interpolates_between_cached_neighbours(lambert_cube, monkeypatch):
    # every solve passes through _newton, whose stack holds copies of the
    # starts: the cold anchor starts from the seed; with 0.125, 0.375 and
    # the anchor 0.5 cached, 0.25 and 0.3 start between 0.125 and 0.375,
    # 0.45 between 0.375 and 0.5, 0.01 from the lower end and 1.0 from the
    # upper end, and no row of the call starts from another row's solution
    starts = []
    newton = realization._newton

    def recorded(sys_, X0, targets):
        starts.append(X0)
        return newton(sys_, X0, targets)

    monkeypatch.setattr(realization, "_newton", recorded)
    path = default_path(lambert_cube.base, lambert_cube.angles())
    walker = PathRealizer(path)
    anchor = realization._system(lambert_cube.base).targets(path.angles_at(PathRealizer.ANCHOR_T))
    assert np.array_equal(starts[0], realization._seed(lambert_cube.base, anchor)[None])
    walker.solutions_at([0.375, 0.125])
    assert np.array_equal(starts[1], [walker.cache[0.5]] * 2)
    before = dict(walker.cache)
    ts = [0.45, 0.01, 0.3, 1.0, 0.25]
    walker.solutions_at(ts)
    assert len(starts) == 3
    # rows in ascending t: 0.01, 0.25, 0.3, 0.45, 1.0
    assert np.array_equal(starts[2], [interpolated_start(before, t) for t in sorted(ts)])
    assert np.array_equal(starts[2][0], before[0.125])
    assert np.array_equal(starts[2][4], before[0.5])
    for x0 in starts[2][1:4]:
        assert not any(np.array_equal(x0, x) for x in before.values())


@pytest.mark.parametrize("name,max_label", [
    ("cube_all2", 3), ("triangular_prism", 4), ("pyramid", 6)])
def test_census_rows_realize_from_one_seed(name, max_label, monkeypatch):
    # every row, all-ideal ones included, converges from the first
    # sphere-lift seed, with no retry at another seed
    seeds = []
    seed = realization._seed

    def counted(p, targets):
        seeds.append(p)
        return seed(p, targets)

    monkeypatch.setattr(realization, "_seed", counted)
    p = load(name).base
    rows = [row.labels for row in enumerate_labelings(p, max_label, ALLOW_IDEAL)]
    assert rows
    for labels in rows:
        seeds.clear()
        lp = LabeledPolyhedron(base=p, labels=dict(zip(p.edges, labels)))
        assert realize(lp, ALLOW_IDEAL).residual <= 1e-10, labels
        assert len(seeds) == 1, labels


def test_prism_realization(triangular_prism):
    r = realize(triangular_prism)
    assert r.residual <= 1e-10
    assert gram_residual(r) <= 1e-10
    assert all(kind == "compact" for _, kind in r.vertices.values())


def test_pyramid_realization_with_ideal_apex(pyramid):
    r = realize(pyramid)
    assert r.residual <= 1e-10
    vec, kind = r.vertices[4]
    assert kind == "ideal"
    assert mdot(vec, vec) == pytest.approx(0.0, abs=1e-8)
    # scaled to w0 = 1 in the reported frame, not in the solver's
    assert vec[0] == pytest.approx(1.0, abs=1e-12)
    for v in range(4):
        assert r.vertices[v][1] == "compact"


def right_angled(p):
    return LabeledPolyhedron(base=p, labels={e: 2 for e in p.edges})


PYRAMID = load("pyramid")
PYRAMID_BASE = ((0, 1), (1, 2), (2, 3), (0, 3))  # the base square's edges in cyclic order
CUBE = load("cube_all2").base


def pyramid_row(row):
    """The bundled pyramid with base labels ``row`` in cyclic order, apex edges at 2."""
    labels = dict(PYRAMID.labels)
    labels.update(zip(PYRAMID_BASE, row))
    return LabeledPolyhedron(base=PYRAMID.base, labels=labels)


CUBE_ALL3 = LabeledPolyhedron(base=CUBE, labels=dict.fromkeys(CUBE.edges, 3))
ALL_IDEAL = [(pyramid_row((3, 6, 3, 6)), None), (pyramid_row((4, 4, 4, 4)), None),
             (CUBE_ALL3, ALLOW_IDEAL)]
ALL_IDEAL_IDS = ["pyramid-3636", "pyramid-4444", "cube-all3"]


@pytest.mark.parametrize("lp,regime", ALL_IDEAL, ids=ALL_IDEAL_IDS)
def test_every_vertex_ideal_rows_realize(lp, regime):
    # the gauge comes from the normals alone, so a row with no finite
    # vertex realizes like any other
    assert check(lp, regime or default_regime(lp.base)).realizable
    r = realize(lp, regime)
    assert {kind for _, kind in r.vertices.values()} == {IDEAL}
    assert r.residual <= RESIDUAL_TOL
    assert gram_residual(r) <= r.residual
    for vec, _ in r.vertices.values():
        assert vec[0] == pytest.approx(1.0, abs=1e-12)
        assert mdot(vec, vec) == pytest.approx(0.0, abs=1e-8)


def test_rejected_labeling_cannot_be_realized(cube_all2):
    with pytest.raises(LabelingRejected):
        realize(cube_all2)


def test_dof_audit_counts(cube_all2, triangular_prism, pyramid):
    assert dof_audit(cube_all2.base)["dof"] == 0
    a = dof_audit(triangular_prism.base)
    assert a == {"unknowns": 20, "constraints": 14, "gauge": 6, "dof": 0}
    b = dof_audit(pyramid.base)
    assert b == {"unknowns": 20, "constraints": 14, "gauge": 6, "dof": 0}


@pytest.mark.parametrize("lp,regime", [
    (load("lambert_cube"), None), (load("pyramid"), None), (CUBE_ALL3, ALLOW_IDEAL),
    (right_angled(corpus.loebell(8)), None)], ids=["lambert_cube", "pyramid", "cube-all3", "L8"])
def test_gauge_normalization(lp, regime):
    # the sum of the vertices, each the null vector of its first three
    # face planes on the future sheet, lies on the time axis; face 0 spans
    # x3 with its first neighbour in the x1 >= 0 half of the x2 = 0 plane,
    # and the third face at the first end of their shared edge has x2 > 0
    r = realize(lp, regime)
    p = r.polyhedron
    E = np.array([r.normals[f] for f in range(len(p.faces))])
    x = np.zeros(4)
    for v in p.vertices:
        w = _null_vectors(E[list(p.vertex_faces[v][:3])] * METRIC)
        x += w * np.sign(w[0])
    assert np.max(np.abs(x[1:])) <= 1e-12 * x[0]
    fb = p.face_neighbors[0][0]
    first_end = next(e for e in p.edges if set(p.edge_faces[e]) == {0, fb})[0]
    fc = next(f for f in p.vertex_faces[first_end] if f not in (0, fb))
    assert abs(E[0, 1]) <= 1e-12 and abs(E[0, 2]) <= 1e-12 and E[0, 3] > 0
    assert abs(E[fb, 2]) <= 1e-12 and E[fb, 1] > 0
    assert E[fc, 2] > 0


def test_gauge_refuses_a_spacelike_vertex_sum(lambert_cube):
    # normals that solve nothing can hold spacelike vertices, whose sum
    # need not be timelike (seeds 12, 15 and 195 here); no frame has its
    # time axis there, and the refusal is typed, never a bare ValueError
    p, angles = lambert_cube.base, lambert_cube.angles()
    refused = []
    for s in range(200):
        try:
            build_realization(p, angles, np.random.default_rng(s).standard_normal(24), 0)
        except DegenerateVertex as exc:
            if "vertex sum is not timelike" in str(exc):
                refused.append(s)
        except RealizationError:
            pass
    assert refused == [12, 15, 195]


@pytest.mark.parametrize("lp", [load("lambert_cube"), load("pyramid"), CUBE_ALL3,
                                right_angled(corpus.loebell(8))],
                         ids=["lambert_cube", "pyramid", "cube-all3", "L8"])
def test_perturbed_restart_determinism(lp):
    # the restart lands elsewhere on the gauge orbit; the frame is read
    # from the normals alone and the vertices are computed in it, so
    # neither the normals nor compact or ideal vertices move
    p = lp.base
    angles = lp.angles()
    X, _, iters = solve_at(p, angles)
    r1 = build_realization(p, angles, X, iters)
    rng = np.random.default_rng(3)
    X2, _, _ = warm_solve(p, angles, X + 1e-3 * rng.standard_normal(X.shape))
    r2 = build_realization(p, angles, X2, 0)
    for fid in r1.normals:
        assert np.max(np.abs(r1.normals[fid] - r2.normals[fid])) <= 1e-8
    for v in r1.vertices:
        assert np.max(np.abs(r1.vertices[v][0] - r2.vertices[v][0])) <= 1e-8, v


def test_edge_lengths_constant_on_label_orbits(lambert_cube):
    r = realize(lambert_cube)
    lens = edge_lengths(r)
    by_label = {}
    for e, length in lens.items():
        assert length > 0
        by_label.setdefault(lambert_cube.labels[e], []).append(length)
    three = by_label[3]
    assert max(three) - min(three) < 1e-8  # symmetry orbit of the 3-edges


def test_edge_lengths_shrink_toward_collapse(lambert_cube):
    p = lambert_cube.base
    path = default_path(p, lambert_cube.angles())
    walker = PathRealizer(path)
    varying = path.varying_edges
    prev = None
    for t in (1.0, 0.5, 0.25, 0.1, 0.02, 1e-4):
        r = build_realization(p, path.angles_at(t), walker.solution_at(t), walker.newton_iters)
        worst = max(edge_lengths(r)[e] for e in varying)
        if prev is not None:
            assert worst < prev
        prev = worst
    assert prev < 0.05


def test_ideal_edges_have_no_length(pyramid):
    finite = edge_lengths(realize(pyramid))
    assert set(finite) == {(0, 1), (1, 2), (2, 3), (0, 3)}  # the apex edges are left out
    assert all(length > 0 for length in finite.values())


def test_metric_signature():
    assert list(METRIC) == [-1.0, 1.0, 1.0, 1.0]


def cofactor_matrix(M):
    """Oracle: cofactors of one matrix, one minor at a time."""
    n = M.shape[0]
    C = np.empty_like(M)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(M, i, axis=0), j, axis=1)
            C[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return C


def test_cofactors_match_minor_loop():
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((200, 4, 4))
    stack[:20, 3] = stack[:20, 0] + stack[:20, 1]  # singular matrices too
    expected = np.array([cofactor_matrix(M) for M in stack])
    assert np.array_equal(_cofactors(stack), expected)
    assert np.array_equal(_cofactors(stack[7]), expected[7])


def test_null_vectors_annihilate_their_rows():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((500, 3, 4)) * rng.uniform(0.1, 10.0, (500, 3, 1))
    w = _null_vectors(M)
    Mw = np.linalg.norm((M @ w[:, :, None])[:, :, 0], axis=1)
    bound = 1e-13 * np.linalg.norm(M, axis=(1, 2)) * np.linalg.norm(w, axis=1)
    assert np.all(Mw <= bound)


def corner_vectors(p, E):
    """The null vector of each vertex's first three face planes, as
    ``build_realization`` computes it."""
    return _null_vectors(E[realization._system(p).corners] * METRIC)


def svd_vertex(E, faces):
    """Oracle: the future-pointing null vector of the planes ``faces`` by SVD."""
    w = np.linalg.svd(E[list(faces)] * METRIC)[2][-1]
    return -w if w[0] < 0 else w


def vertices_by_svd(p, E, kinds, corners=False):
    """Oracle: each vertex from the SVD null space of all its face
    planes, or of its first three with ``corners``, one vertex at a time."""
    out = []
    for v in p.vertices:
        w = svd_vertex(E, p.vertex_faces[v][:3] if corners else p.vertex_faces[v])
        out.append(w / math.sqrt(-mdot(w, w)) if kinds[v] == COMPACT else w / w[0])
    return np.array(out)


def relabeled_loebell(loebell, n):
    """Right-angled L(n) with its vertex ids permuted."""
    p = loebell(n)
    perm = np.random.default_rng(n).permutation(len(p.vertices))
    return right_angled(AbstractPolyhedron(name=p.name, faces=tuple(
        tuple(int(perm[v]) for v in f) for f in p.faces)))


@pytest.mark.parametrize("name", ["lambert_cube", "triangular_prism", "pyramid",
                                  "L5", "L6", "L7"])
def test_vertices_match_svd_oracle(name, loebell):
    # each vertex against the SVD null vector of the three faces it is
    # computed from; the fourth face at a 4-valent ideal apex misses it by
    # what the Newton stop leaves of the solve's residual
    lp = load(name) if name in CORPUS else relabeled_loebell(loebell, int(name[1:]))
    p = lp.base
    path = default_path(p, lp.angles())
    walker = PathRealizer(path)
    for t in (0.3, 0.7, 1.0):
        E = walker.solution_at(t).reshape(len(p.faces), 4)
        W, compact = _compute_vertices(p, corner_vectors(p, E))
        kinds = {v: COMPACT if c else IDEAL for v, c in zip(p.vertices, compact)}
        ref = vertices_by_svd(p, E, kinds, corners=True)
        assert np.all(np.linalg.norm(W - ref, axis=1) <= 1e-12 * np.linalg.norm(ref, axis=1))
        for w, v in zip(W, p.vertices):
            for f in p.vertex_faces[v][3:]:
                assert abs(mdot(w, E[f])) <= RESIDUAL_TOL
    assert kinds == check(lp, default_regime(p)).vertex_types


def test_gram_lengths_match_the_vertex_oracle(sweep):
    # cosh len = |C_gh| / sqrt(C_gg C_hh) against arccosh(-<u,v>) of the
    # SVD vertices u, v, on every edge with two compact endpoints
    corpus_rows = [realize(load(name)) for name in ("lambert_cube", "triangular_prism", "pyramid")]
    worst = 0.0
    for r in sweep + corpus_rows:
        p = r.polyhedron
        E = np.array([r.normals[f] for f in range(len(p.faces))])
        kinds = {v: kind for v, (_, kind) in r.vertices.items()}
        W = dict(zip(p.vertices, vertices_by_svd(p, E, kinds)))
        cols = [k for k, e in enumerate(p.edges) if all(kinds[v] == COMPACT for v in e)]
        ref = [math.acosh(-mdot(W[a], W[b])) for a, b in (p.edges[k] for k in cols)]
        worst = max(worst, np.max(np.abs(_System(p).lengths(E.ravel(), cols) - ref)))
    assert worst <= 1e-10


def vertex0_path(lambert_cube):
    """The segment from the right-angled cube to the Lambert cube with
    vertex 0's edges at 0.3*pi: vertex 0's angle sum falls from 1.5*pi at
    its start to 0.9*pi at its end."""
    p = lambert_cube.base
    mid = dict(lambert_cube.angles())
    for e in p.vertex_edges[0]:
        mid[e] = 0.3 * math.pi
    return DeformationPath.from_configs(p, [dict.fromkeys(p.edges, math.pi / 2), mid])


NAN_PATH_TS = np.linspace(0.05, 0.95, 19)


def test_gram_lengths_are_nan_exactly_at_non_timelike_ends(lambert_cube):
    # the nodes near the end realize a vertex 0 that is not compact; the
    # nodes keep clear of the t where its angle sum crosses pi
    p = lambert_cube.base
    path = vertex0_path(lambert_cube)
    ts = NAN_PATH_TS
    sums = path.angle_rows(ts)[:, [p.edges.index(e) for e in p.vertex_edges[0]]].sum(axis=1)
    assert np.min(np.abs(sums - math.pi)) > 0.01
    assert (sums <= math.pi).any() and (sums > math.pi).any()
    X = PathRealizer(path).solutions_at(ts)
    lens = _System(p).lengths(X, list(range(len(p.edges))))
    for x, row in zip(X, lens):
        W = {v: svd_vertex(x.reshape(-1, 4), p.vertex_faces[v]) for v in p.vertices}
        timelike = {v: mdot(w, w) < 0 for v, w in W.items()}
        for e, length in zip(p.edges, row.tolist()):
            if timelike[e[0]] and timelike[e[1]]:
                u, v = (W[v] / math.sqrt(-mdot(W[v], W[v])) for v in e)
                assert length == pytest.approx(math.acosh(-mdot(u, v)), abs=1e-10)
            else:
                assert math.isnan(length)
    assert np.isnan(lens[sums <= math.pi]).any(axis=1).all()
    assert not np.isnan(lens[sums > math.pi]).any()


def lengths_by_cofactors(sys_, X, cols):
    """Oracle: edge lengths read from the full 4x4 cofactor matrices C of
    the Gram matrices, |C[2,3]| / sqrt(C[2,2] C[3,3]), nan at an end whose
    minor is not positive."""
    E = X.reshape(X.shape[:-1] + (sys_.nf, 4))[..., sys_.quads[cols], :]
    C = _cofactors((E * METRIC) @ np.swapaxes(E, -1, -2))
    cgg, chh = C[..., 2, 2], C[..., 3, 3]
    ok = (cgg > 0) & (chh > 0)
    cosh = np.abs(C[..., 2, 3]) / np.sqrt(np.where(ok, cgg * chh, 1.0))
    return np.where(ok, np.arccosh(np.maximum(cosh, 1.0)), np.nan)


def test_lengths_match_the_full_cofactors(lambert_cube, monkeypatch):
    # bit for bit, nan where the oracle is nan: the stack the Lambert
    # cube's default path reads its lengths from (the 24 nodes of the 8-
    # and 16-node rules), and every edge along a path on which vertex 0
    # stops being compact
    calls = []
    lengths = _System.lengths

    def recorded(self, X, cols):
        calls.append((self, X, cols))
        return lengths(self, X, cols)

    monkeypatch.setattr(_System, "lengths", recorded)
    schlafli_volume(default_path(lambert_cube.base, lambert_cube.angles()))
    assert [len(X) for _, X, _ in calls] == [24]
    p = lambert_cube.base
    path = vertex0_path(lambert_cube)
    calls.append((_System(p), PathRealizer(path).solutions_at(NAN_PATH_TS),
                  list(range(len(p.edges)))))
    for sys_, X, cols in calls:
        assert np.array_equal(lengths(sys_, X, cols), lengths_by_cofactors(sys_, X, cols),
                              equal_nan=True)
    # on the last stack some lengths are nan, each at an edge whose end
    # that open_end names, from C_hh alone, is vertex 0
    sys_, X, cols = calls[-1]
    nan = np.isnan(lengths(sys_, X, cols))
    assert nan.any() and not nan.all()
    for row, col in np.argwhere(nan):
        assert sys_.open_end(X[row], col) == 0


def test_spacelike_vertex_is_degenerate(lambert_cube):
    # at t = 0.95 vertex 0's angle sum is 0.93*pi, so its three planes
    # meet outside the hyperboloid: neither compact nor ideal
    p = lambert_cube.base
    E = PathRealizer(vertex0_path(lambert_cube)).solution_at(0.95).reshape(-1, 4)
    with pytest.raises(DegenerateVertex, match="vertex 0 is spacelike"):
        _compute_vertices(p, corner_vectors(p, E))


def system_by_loops(p, X, targets):
    """Oracle: the Gram residual and Jacobian filled one edge and one
    apex face at a time."""
    nf, ne = len(p.faces), len(p.edges)
    apexes = [v for v in sorted(p.ideal_candidates) if p.valence(v) == 4]
    E = X.reshape(nf, 4)
    G = E * METRIC
    r = np.empty(nf + ne + len(apexes))
    J = np.zeros((len(r), 4 * nf))
    for i in range(nf):
        r[i] = np.dot(G[i], E[i]) - 1.0
        J[i, 4 * i:4 * i + 4] = 2.0 * G[i]
    for k, e in enumerate(p.edges):
        i, j = p.edge_faces[e]
        r[nf + k] = np.dot(G[i], E[j]) + targets[k]
        J[nf + k, 4 * i:4 * i + 4] = G[j]
        J[nf + k, 4 * j:4 * j + 4] = G[i]
    for a, v in enumerate(apexes):
        fs = list(p.vertex_faces[v])
        r[nf + ne + a] = np.linalg.det(E[fs])
        for f, cof in zip(fs, cofactor_matrix(E[fs])):
            J[nf + ne + a, 4 * f:4 * f + 4] = cof
    return r, J


def gauge_rows_by_loops(p, X):
    """Oracle: the six gauge rows, the tangent A e_f of every normal along
    each generator A = diag(METRIC) (e_i e_j^T - e_j e_i^T), i < j, filled
    one face at a time."""
    E = X.reshape(len(p.faces), 4)
    T = np.zeros((6, X.size))
    for g, (i, j) in enumerate(itertools.combinations(range(4), 2)):
        A = np.zeros((4, 4))
        A[i, j], A[j, i] = METRIC[i], -METRIC[j]
        for f in range(len(p.faces)):
            T[g, 4 * f:4 * f + 4] = A @ E[f]
    return T


def quads_by_loops(p):
    """Oracle: each edge's two faces, then the first face of each
    endpoint, in p.vertex_faces order, that is not on the edge."""
    return np.array([(*p.edge_faces[e], *(next(f for f in p.vertex_faces[v]
                                               if f not in p.edge_faces[e]) for v in e))
                     for e in p.edges])


def sparse_ids(p):
    """``p`` with its vertex ids permuted and spread apart, 3v + 5."""
    perm = np.random.default_rng(len(p.faces)).permutation(len(p.vertices))
    return AbstractPolyhedron(name=p.name, faces=tuple(
        tuple(3 * int(perm[v]) + 5 for v in f) for f in p.faces))


@pytest.mark.parametrize("name", ["lambert_cube", "pyramid", "L7", "L7-sparse"])
def test_system_matches_loop_oracle(name):
    # bit for bit: the batched matmuls add the four products of each
    # unit-norm and edge row in np.dot's order, and every other entry
    # outside the apex rows is one product of an entry of X; a stack of
    # rows gives each row's own system, and the index arrays follow the
    # vertex ids whatever they are
    if name in CORPUS:
        lp = load(name)
    else:
        p = corpus.loebell(7)
        lp = right_angled(sparse_ids(p) if name.endswith("sparse") else p)
    sys_ = _System(lp.base)
    assert np.array_equal(sys_.quads, quads_by_loops(lp.base))
    targets = sys_.targets(lp.angles())
    rng = np.random.default_rng(5)
    for _ in range(20):
        X = rng.standard_normal(4 * sys_.nf)
        r, J = system_by_loops(lp.base, X, targets)
        assert np.array_equal(sys_.residual(X, targets), r)
        assert np.array_equal(sys_.newton_matrix(X)[:sys_.n_eq], J)
        assert np.array_equal(sys_.newton_matrix(X)[sys_.n_eq:], gauge_rows_by_loops(lp.base, X))
    stack = rng.standard_normal((3, 4 * sys_.nf))
    K = sys_.newton_matrix(stack)
    r = sys_.residual(stack, np.tile(targets, (3, 1)))
    for x, k, res in zip(stack, K, r):
        oracle_r, J = system_by_loops(lp.base, x, targets)
        assert np.array_equal(res, oracle_r)
        assert np.array_equal(k, np.vstack([J, gauge_rows_by_loops(lp.base, x)]))


@pytest.mark.parametrize("name", ["lambert_cube", "pyramid"])
def test_jacobian_matches_central_differences(name):
    lp = load(name)
    p = lp.base
    sys_ = _System(p)
    angles = lp.angles()
    targets = sys_.targets(angles)
    X, _, _ = solve_at(p, angles)
    X = X + 1e-2 * np.random.default_rng(2).standard_normal(X.shape)
    h = 1e-6
    numeric = np.empty((sys_.n_eq, X.size))
    for k in range(X.size):
        dx = np.zeros(X.size)
        dx[k] = h
        numeric[:, k] = (sys_.residual(X + dx, targets) - sys_.residual(X - dx, targets)) / (2 * h)
    assert np.max(np.abs(sys_.newton_matrix(X)[:sys_.n_eq] - numeric)) <= 1e-7


@pytest.mark.parametrize("name", CORPUS)
def test_vertex_kinds_match_exact_types(name):
    # the corpus labeling, then random relabelings with labels 2..4,
    # which give compact, ideal and inadmissible vertices: an admissible
    # draw realizes with its exact kinds, and a path to a draw with an
    # inadmissible vertex is refused before any solve
    lp = load(name)
    p = lp.base
    rng = np.random.default_rng(len(name))
    draws = [lp] + [LabeledPolyhedron(base=p, labels={
        e: int(n) for e, n in zip(p.edges, rng.integers(2, 5, len(p.edges)))})
        for _ in range(60)]
    right = dict.fromkeys(p.edges, math.pi / 2)
    for lq in draws:
        exact = check(lq).vertex_types
        if INADMISSIBLE in exact.values():
            path = DeformationPath.from_configs(p, [right, lq.angles()])
            with pytest.raises(RealizationError, match="not realizable"), \
                    mock.patch.object(realization, "_newton", side_effect=AssertionError):
                schlafli_volume(path)
        elif check(lq, ALLOW_IDEAL).realizable:
            r = realize(lq, ALLOW_IDEAL)
            assert {v: kind for v, (_, kind) in r.vertices.items()} == exact


@pytest.mark.parametrize("name", ["lambert_cube", "triangular_prism", "pyramid"])
def test_singular_start_is_nonconvergence(name):
    # all-zero normals make the Newton matrix zero: a typed failure, not LinAlgError
    lp = load(name)
    with pytest.raises(NonConvergence):
        warm_solve(lp.base, lp.angles(), np.zeros(4 * len(lp.base.faces)))


@pytest.mark.parametrize("p", [load(name).base for name in CORPUS]
                         + [corpus.loebell(n) for n in range(3, 13)],
                         ids=list(CORPUS) + [f"L{n}" for n in range(3, 13)])
def test_equations_and_gauge_fill_the_unknowns(p):
    audit = dof_audit(p)
    assert audit["dof"] == 0
    assert audit["constraints"] + 6 == 4 * len(p.faces)
    sys_ = _System(p)
    X = np.random.default_rng(len(p.faces)).standard_normal(4 * sys_.nf)
    assert sys_.newton_matrix(X).shape == (4 * sys_.nf, 4 * sys_.nf)


LAMBERT = load("lambert_cube")
LAMBERT_BAND = ((0, 1), (2, 6), (4, 7))


def lambert_with(lmn):
    labels = dict(LAMBERT.labels)
    labels.update(zip(LAMBERT_BAND, lmn))
    return LabeledPolyhedron(base=LAMBERT.base, labels=labels)


@pytest.fixture(scope="module")
def sweep(loebell):
    """Realizations of the 216 Lambert triples with labels 3..8 and of
    right-angled L(5..12)."""
    lambert = [lambert_with(lmn) for lmn in itertools.product(range(3, 9), repeat=3)]
    return [realize(lp) for lp in lambert + [right_angled(loebell(n)) for n in range(5, 13)]]


targets_on_paths = st.one_of(
    st.tuples(*[st.integers(3, 8)] * 3).map(lambert_with),
    st.sampled_from([load("pyramid"), right_angled(corpus.loebell(5))]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lp=targets_on_paths, t=st.floats(0.05, 1.0),
       scale=st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]), seed=st.integers(0, 2**16))
def test_step_is_the_minimum_norm_least_squares_step(lp, t, scale, seed):
    p = lp.base
    path = default_path(p, lp.angles())
    X = PathRealizer(path).solution_at(t)
    X = X + scale * np.random.default_rng(seed).standard_normal(X.shape)
    sys_ = _System(p)
    r = sys_.residual(X, sys_.targets(path.angles_at(t)))
    K = sys_.newton_matrix(X)
    J, T = K[:sys_.n_eq], K[sys_.n_eq:]
    assert np.max(np.abs(J @ T.T)) <= 1e-12
    oracle = np.linalg.lstsq(J, -r, rcond=None)[0]
    assert np.linalg.norm(sys_.step(X, r) - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_solver_never_calls_lstsq(monkeypatch, lambert_cube):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called from the solver")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert schlafli_volume(lambert_cube).volume > 0
    assert realize(right_angled(corpus.loebell(5))).residual <= 1e-10
    src = Path(realization.__file__).parent
    assert not [f.name for f in src.glob("*.py") if "lstsq" in f.read_text()]


def newton_or_failure(sys_, X0, targets):
    """``_newton`` on a stack: (X, rmax, steps), or the NonConvergence it raised."""
    try:
        return realization._newton(sys_, X0, targets)
    except NonConvergence as exc:
        return exc


def one_row(sys_, x0, targets):
    out = newton_or_failure(sys_, x0[None], targets[None])
    return out if isinstance(out, NonConvergence) else tuple(a[0] for a in out)


stack_targets = st.one_of(
    st.tuples(*[st.integers(3, 8)] * 3).map(lambert_with),
    st.sampled_from([load("lambert_cube"), load("triangular_prism"), load("pyramid"),
                     right_angled(corpus.loebell(5))]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lp=stack_targets, ts=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=6),
       scale=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]), seed=st.integers(0, 2**16),
       singular=st.booleans())
def test_stacked_rows_match_one_row_solves(lp, ts, scale, seed, singular):
    # rows leave the work set at different steps; each row's iterates,
    # line search and failure are its own, bit for bit.  Starts far
    # from the solution stagnate or reach the iteration limit (lowered
    # here to keep the test fast), and an all-zero start has a singular
    # Newton matrix.
    p = lp.base
    path = default_path(p, lp.angles())
    anchor = PathRealizer(path).solution_at(PathRealizer.ANCHOR_T)
    X0 = anchor + scale * np.random.default_rng(seed).standard_normal((len(ts), anchor.size))
    if singular:
        X0[-1] = 0.0
    sys_ = realization._system(p)
    targets = np.array([sys_.targets(path.angles_at(t)) for t in ts])
    with mock.patch.object(realization, "MAX_NEWTON_ITERS", 20):
        rows = [one_row(sys_, x0, tg) for x0, tg in zip(X0, targets)]
        stacked = newton_or_failure(sys_, X0, targets)
    failed = [i for i, row in enumerate(rows) if isinstance(row, NonConvergence)]
    if failed:
        first = rows[failed[0]]
        assert isinstance(stacked, NonConvergence)
        assert stacked.row == failed[0]
        assert stacked.best_residual == first.best_residual
        assert str(stacked) == str(first)
        return
    X, rmax, steps = stacked
    for i, (x, r, k) in enumerate(rows):
        assert np.array_equal(X[i], x) and rmax[i] == r and steps[i] == k


def test_start_between_points_merged_in_u(lambert_cube):
    # three consecutive floats just below 0.5 share the square root
    # 0.7071067811865475, so the two cached neighbours of the middle one
    # merge in u, and it starts from the lower one's solution
    lo, t, hi = 0.49999999999999983, 0.4999999999999999, 0.49999999999999994
    assert lo < t < hi and math.sqrt(lo) == math.sqrt(t) == math.sqrt(hi)
    walker = PathRealizer(default_path(lambert_cube.base, lambert_cube.angles()))
    anchor = walker.cache[PathRealizer.ANCHOR_T]
    walker.cache.update({lo: anchor + 1.0, hi: anchor + 2.0})
    assert walker._start(sorted(walker.cache), t) is walker.cache[lo]


def test_solutions_at_warm_starts_from_the_cache_before_the_call(lambert_cube):
    # 0.3 and 0.35 both start from the anchor at 0.5, not 0.35 from 0.3;
    # each row then equals a one-row solve from that start
    path = default_path(lambert_cube.base, lambert_cube.angles())
    walker = PathRealizer(path)
    anchor = walker.cache[PathRealizer.ANCHOR_T]
    X = walker.solutions_at([0.35, 0.3])
    for t, x in zip((0.35, 0.3), X):
        ref, _, _ = warm_solve(lambert_cube.base, path.angles_at(t), anchor)
        assert np.array_equal(x, ref)
    assert walker.solves == 3
    assert np.array_equal(walker.solutions_at([0.3])[0], X[1])
    assert walker.solves == 3
    # on a walker holding 0.125, 0.375, the anchor and 0.9, each row of one
    # call starts from the interpolation oracle over that cache, bracketed
    # or not, and is bit-equal to a one-row solve from there; the walker's
    # iteration count grows by the rows' own counts, and a realization
    # reports it; its pass count grows by the slowest row's count
    walker = PathRealizer(path)
    walker.solutions_at([0.125, 0.375, 0.9])
    before = dict(walker.cache)
    k0, p0 = walker.newton_iters, walker.passes
    ts = (0.25, 0.3, 0.45, 0.7, 1e-6, 1.0)
    X = walker.solutions_at(ts)
    counts = []
    for t, x in zip(ts, X):
        ref, _, iters = warm_solve(lambert_cube.base, path.angles_at(t),
                                   interpolated_start(before, t))
        assert np.array_equal(x, ref)
        counts.append(iters)
    total = sum(counts)
    assert walker.newton_iters == k0 + total
    assert walker.passes == p0 + max(counts)
    r = build_realization(lambert_cube.base, path.angles_at(1.0), walker.solution_at(1.0),
                          walker.newton_iters)
    assert r.newton_iters == k0 + total
    assert walker.solves == 4 + len(ts)
    # solution_at is the one-row case
    single = PathRealizer(path)
    single.solutions_at([0.125, 0.375, 0.9])
    assert np.array_equal(single.solution_at(0.25), X[0])


def pinned_by_loops(p, angles):
    """Oracle: among the faces the size of the outer face, or the largest
    if none is named, the first whose edge angles, summed one edge at a
    time, are largest to 12 decimals."""
    size = max(map(len, p.faces)) if p.outer_face is None else len(p.faces[p.outer_face])

    def angle_sum(f):
        cyc = p.faces[f]
        return round(sum(angles[edge_key(a, b)] for a, b in zip(cyc, cyc[1:] + cyc[:1])), 12)

    return max((f for f in range(len(p.faces)) if len(p.faces[f]) == size), key=angle_sum)


def seed_by_loops(p, angles, turn=True):
    """Oracle: the sphere-lift seed built one vertex and one face at a
    time; with ``turn``, a plane with more of the lifted vertices off its
    face on its outer side than on its inner side is negated."""
    outer = pinned_by_loops(p, angles)
    boundary = list(p.faces[outer])
    verts = list(p.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    A = np.zeros((n, n))
    b = np.zeros((n, 2))
    for i, v in enumerate(verts):
        if v in boundary:
            ang = 2 * math.pi * boundary.index(v) / len(boundary)
            A[i, i] = 1.0
            b[i] = (2.0 * math.cos(ang), 2.0 * math.sin(ang))
        else:
            nbrs = [e[0] if e[1] == v else e[1] for e in p.vertex_edges[v]]
            A[i, i] = len(nbrs)
            for w in nbrs:
                A[i, index[w]] -= 1.0
    pos = np.linalg.solve(A, b)
    sph = {}
    for v, (x, y) in zip(verts, pos):
        r2 = x * x + y * y
        sph[v] = np.array([2 * x, 2 * y, r2 - 1.0]) / (r2 + 1.0)
    out = np.zeros((len(p.faces), 4))
    for fid, cyc in enumerate(p.faces):
        c = sph[cyc[0]]
        for v in cyc[1:]:
            c = c + sph[v]
        c = c / np.linalg.norm(c)
        # the cosine of the largest angle between c and a vertex of the face
        cos_rho = min(s[0] * c[0] + s[1] * c[1] + s[2] * c[2] for s in map(sph.get, cyc))
        h = 0.8 * cos_rho / math.sqrt(1.0 - cos_rho * cos_rho)
        out[fid, 0] = h
        out[fid, 1:] = math.sqrt(1.0 + h * h) * c
        # <(1, s), e> of each lifted vertex s off the face
        sides = [mdot(np.array([1.0, *s]), out[fid]) for v, s in sph.items() if v not in cyc]
        if turn and sum(x > 0 for x in sides) > sum(x < 0 for x in sides):
            out[fid] = -out[fid]
    return out.ravel()


CUBE_ROW = LabeledPolyhedron(base=CUBE, labels=dict(zip(CUBE.edges, (2, 2, 2, 2, 3, 4, 2, 2, 3, 3, 2, 4))))


@pytest.mark.parametrize("name", [*CORPUS, "cube-row", "L5", "L8", "L12", "L30"])
def test_seed_matches_loop_oracle(name, loebell):
    # bit for bit, so the cold solves, and realize, do not move; on the
    # cube row the pinned face is not the named outer face
    if name in CORPUS:
        lp = load(name)
    else:
        lp = CUBE_ROW if name == "cube-row" else relabeled_loebell(loebell, int(name[1:]))
    p, angles = lp.base, lp.angles()
    targets = realization._system(p).targets(angles)
    assert realization._pinned_face(p, targets) == pinned_by_loops(p, angles)
    assert np.array_equal(realization._seed(p, targets), seed_by_loops(p, angles))
    if name == "cube-row":
        assert pinned_by_loops(p, angles) != p.outer_face


def test_seed_points_a_flat_face_along_the_pole(cube_all2, monkeypatch):
    # a face whose lifted vertices sum to zero has no centre direction: its
    # normal points along the pole, away from the pinned face; with the
    # face's vertices on the unit circle, symmetric about the origin, they
    # lift onto the equator, so the face plane is the equator's
    p = cube_all2.base
    targets = realization._system(p).targets(cube_all2.angles())
    pinned = realization._pinned_face(p, targets)
    flat = next(f for f in range(len(p.faces)) if not set(p.faces[f]) & set(p.faces[pinned]))
    rows = np.searchsorted(p.vertices, p.faces[flat])
    spring = realization._tutte_positions

    def on_the_unit_circle(*args):
        xy = spring(*args)
        xy[rows] = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        return xy

    monkeypatch.setattr(realization, "_tutte_positions", on_the_unit_circle)
    X = realization._seed(p, targets).reshape(-1, 4)
    assert X[flat].tolist() == [0.0, 0.0, 0.0, -1.0]
    assert X[pinned, 3] > 0


def test_cube_row_realizes_by_one_cold_solve():
    # pinning the outer face, face 1, whose edge angles sum to 1.417*pi,
    # stalls this row's cold solve at residual 0.197; the pinned face is
    # one whose angles sum highest
    X, residual, _ = solve_at(CUBE, CUBE_ROW.angles())
    assert residual <= RESIDUAL_TOL
    r = build_realization(CUBE, CUBE_ROW.angles(), X, 0)
    assert gram_residual(r) <= r.residual


def gram(r):
    E = np.array([r.normals[f] for f in range(len(r.polyhedron.faces))])
    return (E * METRIC) @ E.T


@pytest.mark.parametrize("lp", [load("lambert_cube"), load("triangular_prism"), load("pyramid"),
                                lambert_with((3, 5, 8)), lambert_with((8, 8, 8)),
                                right_angled(corpus.loebell(5)), right_angled(corpus.loebell(9))],
                         ids=["lambert_cube", "triangular_prism", "pyramid", "lambert-358",
                              "lambert-888", "L5", "L9"])
def test_cold_solve_matches_the_path_realization(lp):
    # one cold solve lands where the walk from the collapse end does: the
    # Gram matrices agree to what two solves stopped at RESIDUAL_TOL allow
    p = lp.base
    path = default_path(p, lp.angles())
    walked = build_realization(p, lp.angles(), PathRealizer(path).solution_at(1.0), 0)
    assert np.max(np.abs(gram(realize(lp)) - gram(walked))) <= 2e-10


def census_lp(name, max_label, regime):
    p = load(name).base
    return [LabeledPolyhedron(base=p, labels=dict(zip(p.edges, row.labels)))
            for row in enumerate_labelings(p, max_label, regime)]


def test_relabeled_census_rows_realize():
    # with vertex ids permuted and faces reordered, every row realizes
    # from one cold solve: the pinned face follows the angles, not the
    # file's face order
    rows = (census_lp("cube_all2", 4, STRICT_COMPACT) + census_lp("triangular_prism", 5, STRICT_COMPACT)
            + census_lp("pyramid", 6, ALLOW_IDEAL))
    assert len(rows) == 562
    for k, lp in enumerate(rows):
        r = realize(permuted(lp, k), ALLOW_IDEAL)
        assert r.residual <= RESIDUAL_TOL, lp.labels


def test_realized_normals_meet_their_targets(sweep):
    # the gauge frame is orthonormal, so moving the solution into it keeps
    # the solver's residual: Newton stops at 1e-11.  The reported residual
    # is measured on the returned normals, so it bounds their miss
    assert max(gram_residual(r) for r in sweep) <= 2e-11
    for r in sweep:
        assert gram_residual(r) <= r.residual, r.polyhedron.name


@pytest.mark.parametrize("n", [20, 30])
def test_large_loebell_residual_meets_the_newton_stop(n, loebell):
    # the frame is read from all the normals, not from one vertex far
    # from most of them, so moving the solution into it keeps Newton's
    # residual
    r = realize(right_angled(loebell(n)))
    assert r.residual <= RESIDUAL_TOL
    assert gram_residual(r) <= r.residual


GROWING = [*range(5, 31), 36, 38, 44, 46, 60]


@pytest.fixture(scope="module")
def growing(loebell):
    """Cold realizations of right-angled L(n), n in GROWING."""
    return [realize(right_angled(loebell(n))) for n in GROWING]


def test_growing_loebell_family_realizes_in_few_passes(growing):
    # every seed circle sits on its own lifted face, so a cold solve takes
    # a handful of Gauss-Newton passes however large n is
    iters = {n: r.newton_iters for n, r in zip(GROWING, growing)}
    assert max(iters.values()) <= 6, iters
    assert all(r.residual <= RESIDUAL_TOL for r in growing)


def non_adjacent_gram(r):
    """The Gram entries <e_f, e_g> of the face pairs sharing no edge."""
    p = r.polyhedron
    E = np.array([r.normals[f] for f in range(len(p.faces))])
    G = (E * METRIC) @ E.T
    apart = ~np.eye(len(E), dtype=bool)
    for f, g in p.face_adjacency:
        apart[f, g] = False
    return G[apart]


def test_non_adjacent_faces_are_ultraparallel(growing):
    # two faces of a compact simple polyhedron that share no edge share no
    # vertex, so their planes are ultraparallel and the Gram entry of their
    # outward normals is below -1; a normal reversed against the rest,
    # which a face whose edges are all right angles allows, makes it positive
    worst = {n: non_adjacent_gram(r).max() for n, r in zip(GROWING, growing)}
    assert max(worst.values()) <= -1.0, worst


@pytest.mark.parametrize("n", [5, 12])
def test_reversed_normals_are_turned_back(n, loebell):
    # one face reversed, or every face: the realization is the one the
    # outward normals give
    r = realize(right_angled(loebell(n)))
    p = r.polyhedron
    E = np.array([r.normals[f] for f in range(len(p.faces))])
    ref = build_realization(p, r.angles, E.ravel(), 0)
    one = E.copy()
    one[0] = -one[0]
    out = build_realization(p, r.angles, one.ravel(), 0)
    assert all(np.array_equal(out.normals[f], ref.normals[f]) for f in ref.normals)
    out = build_realization(p, r.angles, -E.ravel(), 0)
    assert all(np.allclose(out.normals[f], ref.normals[f], rtol=0, atol=1e-12)
               for f in ref.normals)
    assert non_adjacent_gram(out).max() <= -1.0


def test_a_plane_through_the_polyhedron_is_refused(loebell):
    # the realized frame puts a point inside on the time axis; a plane
    # through it has vertices off its face on both sides, whatever its sign
    r = realize(right_angled(loebell(5)))
    E = np.array([r.normals[f] for f in range(len(r.polyhedron.faces))])
    E[0] = (0.0, 1.0, 0.0, 0.0)
    with pytest.raises(RealizationError, match="face 0 has vertices off it on both sides"):
        build_realization(r.polyhedron, r.angles, E.ravel(), 0)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_loebell_with_a_pentagon_first_realizes(n, loebell):
    # with no outer face named the seed pins the first largest face, an
    # n-gon: pinning face 0, a pentagon here, fails the cold solve
    p = loebell(n)
    order = [1, *range(2, len(p.faces)), 0]
    q = AbstractPolyhedron(name=p.name, faces=tuple(p.faces[f] for f in order))
    assert realization._pinned_face(q, np.zeros(len(q.edges))) == len(p.faces) - 2
    r = realize(right_angled(q))
    assert r.residual <= RESIDUAL_TOL


def prism_row(p, ngon=3, vertical=2):
    """The n-prism ``p`` with ``ngon`` on the n-gons' edges and ``vertical``
    on the others."""
    n = len(p.faces) - 2
    return LabeledPolyhedron(base=p, labels={e: ngon if (e[0] < n) == (e[1] < n) else vertical
                                             for e in p.edges})


def prism_sample(p, size, seed):
    """``size`` admissible labelings of the prism ``p`` with labels 2 and
    3, drawn uniformly with ``seed``."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < size:
        labels = rng.integers(2, 4, len(p.edges)).tolist()
        lp = LabeledPolyhedron(base=p, labels=dict(zip(p.edges, labels)))
        if check(lp, STRICT_COMPACT).realizable:
            rows.append(lp)
    return rows


def assert_convex(r):
    """The realization meets its targets, and its faces sharing no edge,
    which share no vertex on a compact simple polyhedron, are ultraparallel."""
    assert r.residual <= RESIDUAL_TOL
    assert gram_residual(r) <= r.residual
    assert non_adjacent_gram(r).max() <= -1.0


@pytest.mark.parametrize("n", [5, 6, 7, 8, 10, 12])
def test_prism_with_threes_on_its_ngons_realizes(n, prism):
    # the seed's plane of a large n-gon, a cap wider than a hemisphere, can
    # hold most of the vertices off its face; turned round, it starts on
    # the side the solution has
    assert_convex(realize(prism_row(prism(n))))


@pytest.mark.parametrize("n", [7, 8, 10])
def test_prism_samples_realize(n, prism):
    for lp in prism_sample(prism(n), 25, n):
        assert_convex(realize(lp))


def test_prism_row_with_a_spacelike_least_squares_point_realizes(prism):
    # the point x minimizing sum_f (<x, e_f> + 1)^2 is spacelike on this
    # 10-prism row, so no time axis goes through it; the vertex sum, the
    # frame's time axis, is timelike on every realization
    p = prism(10)
    labels = (3, 2, 2, 3, 2, 3, 2, 2, 3, 3, 2, 2, 2, 2, 2, 3, 2, 2, 3, 2, 3, 2, 2, 2, 3, 2, 3, 3, 3, 2)
    r = realize(LabeledPolyhedron(base=p, labels=dict(zip(p.edges, labels))))
    assert_convex(r)
    E = np.array([r.normals[f] for f in range(len(p.faces))])
    x = np.linalg.lstsq(E * METRIC, -np.ones(len(E)), rcond=None)[0]
    assert mdot(x, x) > 0


def unturned_seed(lp):
    """The cold solve's seed for ``lp`` without the planes turned round."""
    return seed_by_loops(lp.base, lp.angles(), turn=False)


def test_a_face_turned_against_its_angles_is_refused(prism):
    # from the seed without its turn the 7-prism row converges on normals
    # with its second heptagon, face 8, on the side of the vertices off
    # it; turned outward, it misses the Gram targets of its 3-labelled
    # edges by 1
    lp = prism_row(prism(7))
    X, residual, _ = warm_solve(lp.base, lp.angles(), unturned_seed(lp))
    assert residual <= RESIDUAL_TOL
    with pytest.raises(RealizationError, match=r"miss their targets by 1\.000e\+00 > 5e-11; "
                                               r"faces turned outward: \[8\]"):
        build_realization(lp.base, lp.angles(), X, 0)


def test_cli_reports_a_refused_realization_as_failed(tmp_path, capsys, monkeypatch, prism):
    lp = prism_row(prism(7))
    path = tmp_path / "prism7.apoly"
    path.write_text(serialize_polyhedron(lp))
    monkeypatch.setattr(realization, "_seed", lambda p, targets: unturned_seed(lp))
    assert cli.main(["realize", str(path)]) == cli.EXIT_NUMERICAL
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("error: the outward normals miss their targets by 1.000e+00")
    assert out[-1] == "RESULT realize failed"


def permuted(lp, seed):
    """``lp`` with its vertex ids permuted and its faces reordered."""
    p = lp.base
    rng = np.random.default_rng(seed)
    image = dict(zip(p.vertices, rng.permutation(p.vertices).tolist()))
    order = rng.permutation(len(p.faces)).tolist()
    q = AbstractPolyhedron(
        name=p.name, faces=tuple(tuple(image[v] for v in p.faces[f]) for f in order),
        outer_face=None if p.outer_face is None else order.index(p.outer_face),
        ideal_candidates=frozenset(image[v] for v in p.ideal_candidates))
    return LabeledPolyhedron(base=q, labels={edge_key(image[a], image[b]): n
                                             for (a, b), n in lp.labels.items()})


realizable_targets = st.builds(permuted, st.one_of(
    st.sampled_from([load("lambert_cube"), load("triangular_prism"), load("pyramid")]),
    st.tuples(*[st.integers(3, 8)] * 3).map(lambert_with),
    st.integers(5, 12).map(lambda n: right_angled(corpus.loebell(n)))), st.integers(0, 2**16))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lp=realizable_targets)
@example(lp=permuted(ALL_IDEAL[0][0], 1))
@example(lp=permuted(ALL_IDEAL[1][0], 2))
@example(lp=permuted(CUBE_ALL3, 3))
def test_realizations_meet_their_targets_with_exact_kinds(lp):
    # with vertices (and faces) renamed, the returned normals miss their
    # Gram targets by no more than the reported residual, and each
    # vertex comes out of the kind the exact check gives it
    r = realize(lp, ALLOW_IDEAL)
    assert gram_residual(r) <= r.residual
    assert ({v: kind for v, (_, kind) in r.vertices.items()}
            == check(lp, ALLOW_IDEAL).vertex_types)
