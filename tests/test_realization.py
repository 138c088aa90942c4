"""Face-plane solver in the hyperboloid model."""

import math

import numpy as np
import pytest

from coxvol.andreev import COMPACT, INADMISSIBLE, vertex_type
from coxvol.corpus import CORPUS, load
from coxvol.poly_model import AbstractPolyhedron, LabeledPolyhedron
from coxvol.realization import (METRIC, PathRealizer, dof_audit, edge_length,
                                edge_lengths, mdot,
                                realize, solve_at, build_realization,
                                IdealEndpoint, RealizationError, _System,
                                _cofactors, _compute_vertices,
                                _expected_vertex_kinds, _null_vectors)
from coxvol.volume import default_path


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


def test_realize_reports_newton_iterations(lambert_cube):
    # the anchor solve and the continuation step to t=1 both iterate
    assert realize(lambert_cube).newton_iters > 0


def test_path_realizer_is_deterministic(lambert_cube):
    # requests in a fixed order give bit-identical solutions
    path = default_path(lambert_cube)
    ts = (0.9, 0.1, 0.55, 1e-3, 0.3, 0.95)
    runs = []
    for _ in range(2):
        walker = PathRealizer(lambert_cube.base, path)
        runs.append([walker.solution_at(t).copy() for t in ts])
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


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
    for v in range(4):
        assert r.vertices[v][1] == "compact"


def test_rejected_labeling_cannot_be_realized(cube_all2):
    with pytest.raises(RealizationError):
        realize(cube_all2)


def test_dof_audit_counts(cube_all2, triangular_prism, pyramid):
    assert dof_audit(cube_all2.base)["dof"] == 0
    a = dof_audit(triangular_prism.base)
    assert a == {"unknowns": 20, "constraints": 14, "gauge": 6, "dof": 0}
    b = dof_audit(pyramid.base)
    assert b == {"unknowns": 20, "constraints": 14, "gauge": 6, "dof": 0}


def test_gauge_normalization(lambert_cube):
    r = realize(lambert_cube)
    # anchor vertex sits at the model's center
    anchored = [v for v in r.polyhedron.vertices
                if np.allclose(r.vertex_vector(v), [1, 0, 0, 0], atol=1e-8)]
    assert len(anchored) == 1


def test_perturbed_restart_determinism(lambert_cube):
    p = lambert_cube.base
    angles = lambert_cube.angles()
    X, rmax, iters = solve_at(p, angles)
    r1 = build_realization(p, angles, X, rmax, iters)
    rng = np.random.default_rng(3)
    X2, rmax2, _ = solve_at(p, angles, warm_start=X + 1e-6 * rng.standard_normal(X.shape))
    r2 = build_realization(p, angles, X2, rmax2, 0)
    for fid in r1.normals:
        assert np.allclose(r1.normals[fid], r2.normals[fid], atol=1e-8)
    for v in r1.vertices:
        assert np.allclose(r1.vertex_vector(v), r2.vertex_vector(v), atol=1e-8)


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
    path = default_path(lambert_cube)
    walker = PathRealizer(p, path)
    varying = path.varying_edges
    prev = None
    for t in (1.0, 0.5, 0.25, 0.1, 0.02, 1e-4):
        r = walker.realization_at(t)
        worst = max(edge_length(r, e) for e in varying)
        if prev is not None:
            assert worst < prev
        prev = worst
    assert prev < 0.05


def test_ideal_edge_length_raises(pyramid):
    r = realize(pyramid)
    apex_edge = (0, 4)
    with pytest.raises(IdealEndpoint):
        edge_length(r, apex_edge)
    finite = edge_lengths(r)
    assert apex_edge not in finite
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


def vertices_by_svd(p, E, kinds):
    """Oracle: each vertex from the SVD null space of all its face
    planes, one vertex at a time."""
    out = []
    for v in p.vertices:
        w = np.linalg.svd(E[list(p.vertex_faces[v])] * METRIC)[2][-1]
        if w[0] < 0:
            w = -w
        out.append(w / math.sqrt(-mdot(w, w)) if kinds[v] == COMPACT else w / w[0])
    return np.array(out)


def relabeled_loebell(loebell, n):
    """Right-angled L(n) with its vertex ids permuted."""
    p = loebell(n)
    perm = np.random.default_rng(n).permutation(len(p.vertices))
    q = AbstractPolyhedron(name=p.name, faces=tuple(
        tuple(int(perm[v]) for v in f) for f in p.faces))
    return LabeledPolyhedron(base=q, labels={e: 2 for e in q.edges})


@pytest.mark.parametrize("name", ["lambert_cube", "triangular_prism", "pyramid",
                                  "L5", "L6", "L7"])
def test_vertices_match_svd_oracle(name, loebell):
    lp = load(name) if name in CORPUS else relabeled_loebell(loebell, int(name[1:]))
    p = lp.base
    path = default_path(lp)
    walker = PathRealizer(p, path)
    for t in (0.3, 0.7, 1.0):
        E = walker.solution_at(t).reshape(len(p.faces), 4)
        kinds = _expected_vertex_kinds(p, path.angles_at(t))
        W = _compute_vertices(p, E, p.vertices, kinds)
        ref = vertices_by_svd(p, E, kinds)
        assert np.all(np.linalg.norm(W - ref, axis=1) <= 1e-12 * np.linalg.norm(ref, axis=1))


def system_by_loops(p, X, targets):
    """Oracle: the Gram residual and Jacobian filled one edge and one
    apex face at a time."""
    nf, ne = len(p.faces), len(p.edges)
    apexes = [v for v in sorted(p.ideal_candidates) if p.valence(v) == 4]
    E = X.reshape(nf, 4)
    G = E * METRIC
    r = np.empty(nf + ne + len(apexes))
    J = np.zeros((len(r), 4 * nf))
    r[:nf] = np.einsum("ij,ij->i", G, E) - 1.0
    for i in range(nf):
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


@pytest.mark.parametrize("name", ["lambert_cube", "pyramid"])
def test_system_matches_loop_oracle(name):
    # bit for bit: the batched matmul adds the four products of each
    # edge row in np.dot's order
    lp = load(name)
    sys_ = _System(lp.base)
    targets = sys_.targets(lp.angles())
    rng = np.random.default_rng(5)
    for _ in range(20):
        X = rng.standard_normal(4 * sys_.nf)
        r, J = system_by_loops(lp.base, X, targets)
        assert np.array_equal(sys_.residual(X, targets), r)
        assert np.array_equal(sys_.jacobian(X), J)


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
    assert np.max(np.abs(sys_.jacobian(X) - numeric)) <= 1e-7


@pytest.mark.parametrize("name", CORPUS)
def test_vertex_kinds_match_exact_types(name):
    # the corpus labeling, then random relabelings with labels 2..4,
    # which give compact, ideal and inadmissible vertices
    lp = load(name)
    rng = np.random.default_rng(len(name))
    draws = [lp] + [LabeledPolyhedron(base=lp.base, labels={
        e: int(n) for e, n in zip(lp.base.edges, rng.integers(2, 5, len(lp.base.edges)))})
        for _ in range(60)]
    for lq in draws:
        exact = {v: vertex_type(lq, v) for v in lq.base.vertices}
        if INADMISSIBLE in exact.values():
            with pytest.raises(RealizationError):
                _expected_vertex_kinds(lq.base, lq.angles())
        else:
            assert _expected_vertex_kinds(lq.base, lq.angles()) == exact
