"""Numerical realization in the hyperboloid model.

Face planes are encoded by unit spacelike normals in Minkowski space
(signature -+++), with <e_i, e_j> = -cos(angle) across every edge.
Vertices are recovered as intersections of their incident face planes;
compact vertices are timelike, ideal vertices null.

The solve is a damped Gauss-Newton iteration on the normals.  The
residual system (unit norms + edge Gram targets + one concurrency
equation per 4-valent ideal apex) is rank-deficient by exactly the
6-dimensional isometry group; minimum-norm least-squares steps handle
that, and the finished solution is moved to a canonical gauge so output
is deterministic: the anchor face normal becomes (0,0,0,1), its first
neighbor lands in the x2=0, x1>=0 half-plane, the third anchor face in
the x0=0 slice.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .poly_model import AbstractPolyhedron, Edge, LabeledPolyhedron, PolyhedronError

METRIC = np.array([-1.0, 1.0, 1.0, 1.0])

RESIDUAL_TOL = 1e-11
MAX_NEWTON_ITERS = 200
MIN_STEP = 1e-14

TIMELIKE = "compact"
NULL = "ideal"

# classification margin for <v,v> of a normalized direction
_TYPE_TOL = 1e-7


class RealizationError(PolyhedronError):
    pass


class NonConvergence(RealizationError):
    def __init__(self, message: str, best_residual: float):
        self.best_residual = best_residual
        super().__init__(f"{message} (best residual {best_residual:.3e})")


class DegenerateVertex(RealizationError):
    pass


class IdealEndpoint(RealizationError):
    pass


def mdot(x: np.ndarray, y: np.ndarray) -> float:
    """Minkowski inner product, signature -+++."""
    return float(np.dot(x * METRIC, y))


@dataclass
class Realization:
    polyhedron: AbstractPolyhedron
    angles: dict[Edge, float]
    normals: dict[int, np.ndarray]
    vertices: dict[int, tuple[np.ndarray, str]]  # vec, 'compact' | 'ideal'
    residual: float
    dof_audit: dict[str, int]
    newton_iters: int

    def vertex_vector(self, v: int) -> np.ndarray:
        return self.vertices[v][0]

    def vertex_kind(self, v: int) -> str:
        return self.vertices[v][1]


# ---------------------------------------------------------------------------
# residual system


class _System:
    """Residual + Jacobian for Gauss-Newton over the stacked normals."""

    def __init__(self, p: AbstractPolyhedron):
        self.p = p
        self.nf = len(p.faces)
        self.edges = p.edges
        self.edge_faces = [p.edge_faces[e] for e in self.edges]
        self.apexes = [v for v in sorted(p.ideal_candidates) if p.valence(v) == 4]
        self.n_eq = self.nf + len(self.edges) + len(self.apexes)

    def residual(self, X: np.ndarray, targets: np.ndarray) -> np.ndarray:
        E = X.reshape(self.nf, 4)
        G = E * METRIC
        r = np.empty(self.n_eq)
        r[:self.nf] = np.einsum("ij,ij->i", G, E) - 1.0
        for k, (i, j) in enumerate(self.edge_faces):
            r[self.nf + k] = np.dot(G[i], E[j]) + targets[k]
        for a, v in enumerate(self.apexes):
            M = E[list(self.p.vertex_faces[v])]
            r[self.nf + len(self.edges) + a] = np.linalg.det(M)
        return r

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        E = X.reshape(self.nf, 4)
        G = E * METRIC
        J = np.zeros((self.n_eq, self.nf * 4))
        for i in range(self.nf):
            J[i, 4 * i:4 * i + 4] = 2.0 * G[i]
        for k, (i, j) in enumerate(self.edge_faces):
            J[self.nf + k, 4 * i:4 * i + 4] = G[j]
            J[self.nf + k, 4 * j:4 * j + 4] = G[i]
        for a, v in enumerate(self.apexes):
            fs = list(self.p.vertex_faces[v])
            M = E[fs]
            row = self.nf + len(self.edges) + a
            # d det / d M = adj(M)^T
            cof = np.linalg.det(M) * np.linalg.inv(M).T if abs(np.linalg.det(M)) > 1e-13 \
                else _cofactor_matrix(M)
            for idx, f in enumerate(fs):
                J[row, 4 * f:4 * f + 4] = cof[idx]
        return J

    def targets(self, angles: dict[Edge, float]) -> np.ndarray:
        return np.array([math.cos(angles[e]) for e in self.edges])


def _cofactor_matrix(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    C = np.empty_like(M)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(M, i, axis=0), j, axis=1)
            C[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return C


def _newton(sys_: _System, X0: np.ndarray, targets: np.ndarray,
            tol: float = RESIDUAL_TOL) -> tuple[np.ndarray, float, int]:
    X = X0.copy()
    r = sys_.residual(X, targets)
    best = float(np.max(np.abs(r)))
    for it in range(MAX_NEWTON_ITERS):
        rmax = float(np.max(np.abs(r)))
        if rmax <= tol:
            return X, rmax, it
        J = sys_.jacobian(X)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        lam = 1.0
        norm0 = float(np.linalg.norm(r))
        while lam >= MIN_STEP:
            Xn = X + lam * step
            rn = sys_.residual(Xn, targets)
            if float(np.linalg.norm(rn)) < norm0:
                X, r = Xn, rn
                break
            lam *= 0.5
        else:
            raise NonConvergence("Newton step stagnated", best)
        best = min(best, float(np.max(np.abs(r))))
    rmax = float(np.max(np.abs(r)))
    if rmax <= tol:
        return X, rmax, MAX_NEWTON_ITERS
    raise NonConvergence("Newton iteration limit reached", rmax)


# ---------------------------------------------------------------------------
# Euclidean-flavored seed


def _tutte_positions(p: AbstractPolyhedron) -> dict[int, np.ndarray]:
    """Planar spring embedding with the outer face pinned to a polygon."""
    outer = p.outer_face if p.outer_face is not None else 0
    boundary = list(p.faces[outer])
    verts = list(p.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    A = np.zeros((n, n))
    b = np.zeros((n, 2))
    for i, v in enumerate(verts):
        if v in boundary:
            k = boundary.index(v)
            ang = 2 * math.pi * k / len(boundary)
            A[i, i] = 1.0
            b[i] = (2.0 * math.cos(ang), 2.0 * math.sin(ang))
        else:
            nbrs = [e[0] if e[1] == v else e[1] for e in p.vertex_edges[v]]
            A[i, i] = len(nbrs)
            for w in nbrs:
                A[i, index[w]] -= 1.0
    pos = np.linalg.solve(A, b)
    return {v: pos[i] for i, v in enumerate(verts)}


def _sphere_normals(p: AbstractPolyhedron) -> np.ndarray:
    """Rough outward unit normals from an inverse-stereographic lift."""
    pos = _tutte_positions(p)
    sph = {}
    for v, (x, y) in ((v, q) for v, q in pos.items()):
        r2 = x * x + y * y
        sph[v] = np.array([2 * x, 2 * y, r2 - 1.0]) / (r2 + 1.0)
    out = np.zeros((len(p.faces), 3))
    for fid, cyc in enumerate(p.faces):
        c = np.sum([sph[v] for v in cyc], axis=0)
        nrm = np.linalg.norm(c)
        if nrm < 1e-9:
            c = np.array([0.0, 0.0, 1.0 if fid == (p.outer_face or 0) else -1.0])
            nrm = 1.0
        out[fid] = c / nrm
    return out


def _seed(p: AbstractPolyhedron, h: float) -> np.ndarray:
    u = _sphere_normals(p)
    s = math.sqrt(1.0 + h * h)
    X = np.empty((len(p.faces), 4))
    X[:, 0] = h
    X[:, 1:] = s * u
    return X.ravel()


# ---------------------------------------------------------------------------
# vertices and gauge


def _meet(normals: list[np.ndarray]) -> np.ndarray:
    """Common point of the planes <e_i, x> = 0: Minkowski null space."""
    M = np.array(normals) * METRIC
    _, s, vt = np.linalg.svd(M)
    return vt[-1]


def _expected_vertex_kinds(p: AbstractPolyhedron, angles: dict[Edge, float],
                           tol: float = 1e-9) -> dict[int, str]:
    kinds = {}
    for v in p.vertices:
        d = p.valence(v)
        s = sum(angles[e] for e in p.vertex_edges[v])
        slack = s - (d - 2) * math.pi
        if slack > tol:
            kinds[v] = TIMELIKE
        elif slack >= -tol:
            kinds[v] = NULL
        else:
            raise RealizationError(
                f"vertex {v} has angle sum below ({d}-2)*pi; not realizable")
    return kinds


def _compute_vertices(p: AbstractPolyhedron, E: np.ndarray,
                      kinds: dict[int, str],
                      only=None) -> dict[int, tuple[np.ndarray, str]]:
    out: dict[int, tuple[np.ndarray, str]] = {}
    for v in (p.vertices if only is None else sorted(only)):
        w = _meet([E[f] for f in p.vertex_faces[v]])
        q = mdot(w, w) / float(np.dot(w, w))
        kind = kinds[v]
        if kind == TIMELIKE:
            if q > -_TYPE_TOL:
                raise DegenerateVertex(
                    f"vertex {v} expected timelike but <v,v>/|v|^2 = {q:.3e}")
            w = w / math.sqrt(-mdot(w, w))
            if w[0] < 0:
                w = -w
        else:
            if abs(q) > _TYPE_TOL:
                raise DegenerateVertex(
                    f"vertex {v} expected null but <v,v>/|v|^2 = {q:.3e}")
            if w[0] < 0:
                w = -w
            w = w / w[0]
        out[v] = (w, kind)
    return out


def _gauge_transform(p: AbstractPolyhedron, E: np.ndarray,
                     vertices: dict[int, tuple[np.ndarray, str]]) -> np.ndarray:
    """Rows of the Lorentz change-of-basis fixing the canonical gauge."""
    anchor_v = None
    for v in p.vertices:
        if vertices[v][1] == TIMELIKE and p.valence(v) == 3:
            anchor_v = v
            break
    if anchor_v is None:
        raise RealizationError("no finite trivalent vertex to anchor the gauge")
    fa, fb, fc = sorted(p.vertex_faces[anchor_v])
    b0 = vertices[anchor_v][0]
    b3 = E[fa]
    w = E[fb] - mdot(E[fb], b3) * b3
    b1 = w / math.sqrt(mdot(w, w))
    # complete the frame: b2 = Minkowski-orthogonal complement of (b0,b1,b3)
    b2 = _meet([b0, b1, b3])
    b2 = b2 / math.sqrt(mdot(b2, b2))
    if mdot(E[fc], b2) < 0:
        b2 = -b2
    # coordinates: x -> (-<x,b0>, <x,b1>, <x,b2>, <x,b3>)
    T = np.vstack([-b0 * METRIC, b1 * METRIC, b2 * METRIC, b3 * METRIC])
    return T


def _apply_gauge(p, E, vertices):
    T = _gauge_transform(p, E, vertices)
    E2 = E @ T.T
    verts2 = {v: (T @ w, kind) for v, (w, kind) in vertices.items()}
    return E2, verts2


# ---------------------------------------------------------------------------
# public entry points


def dof_audit(p: AbstractPolyhedron) -> dict[str, int]:
    apexes = [v for v in p.ideal_candidates if p.valence(v) == 4]
    unknowns = 4 * len(p.faces)
    constraints = len(p.faces) + len(p.edges) + len(apexes)
    return {
        "unknowns": unknowns,
        "constraints": constraints,
        "gauge": 6,
        "dof": unknowns - constraints - 6,
    }


def solve_at(p: AbstractPolyhedron, angles: dict[Edge, float],
             warm_start: np.ndarray | None = None,
             seed_scales=(0.3, 0.15, 0.5, 0.08, 0.7)) -> tuple[np.ndarray, float, int]:
    """Solve the Gram system at one angle assignment.

    Returns the raw (ungauged) stacked normals, max residual, iteration
    count.  With a warm start only that start is tried; otherwise a
    deterministic ladder of sphere-lift seeds is attempted.
    """
    sys_ = _System(p)
    targets = sys_.targets(angles)
    if warm_start is not None:
        return _newton(sys_, warm_start, targets)
    last: NonConvergence | None = None
    for h in seed_scales:
        try:
            return _newton(sys_, _seed(p, h), targets)
        except (NonConvergence, np.linalg.LinAlgError) as exc:
            last = exc if isinstance(exc, NonConvergence) else NonConvergence(str(exc), math.inf)
    raise last


def build_realization(p: AbstractPolyhedron, angles: dict[Edge, float],
                      X: np.ndarray, rmax: float, iters: int) -> Realization:
    kinds = _expected_vertex_kinds(p, angles)
    E = X.reshape(len(p.faces), 4)
    vertices = _compute_vertices(p, E, kinds)
    E, vertices = _apply_gauge(p, E, vertices)
    normals = {fid: E[fid] for fid in range(len(p.faces))}
    return Realization(polyhedron=p, angles=dict(angles), normals=normals,
                       vertices=vertices, residual=rmax,
                       dof_audit=dof_audit(p), newton_iters=iters)


def realize(lp: LabeledPolyhedron, regime: str | None = None) -> Realization:
    """Realize a labeled polyhedron, walking in from a collapse configuration.

    The angle path is the default deformation path (see the volume
    module); continuation with warm starts keeps every Newton solve in
    its basin.  The admissibility precondition is the caller's job for
    raw angle input; for labeled input it is enforced here.
    """
    from . import andreev as _andreev
    from .volume import default_path

    if regime is None:
        regime = (_andreev.ALLOW_IDEAL if lp.base.ideal_candidates
                  else _andreev.STRICT_COMPACT)
    report = _andreev.check(lp, regime)
    if not report.realizable:
        raise RealizationError(
            f"labeling rejected ({report.reason or report.outcome}); cannot realize")
    path = default_path(lp)
    walker = PathRealizer(lp.base, path)
    return walker.realization_at(1.0)


class PathRealizer:
    """Continuation cache along a deformation path.

    Solutions are anchored once (trying a few interior path points) and
    then marched to any requested parameter with warm starts from the
    nearest cached parameter, halving the step on failure.  Requests
    issued in a fixed order produce bit-identical results.
    """

    MAX_STEPS = 64

    def __init__(self, p: AbstractPolyhedron, path, anchor_candidates=(0.5, 0.75, 0.25, 1.0, 0.125)):
        self.p = p
        self.path = path
        # t -> (stacked normals, Newton iterations of the solves that reached t)
        self.cache: dict[float, tuple[np.ndarray, int]] = {}
        self._ts: list[float] = []  # the cached t, ascending
        self._anchor(anchor_candidates)

    def _store(self, t: float, X: np.ndarray, iters: int) -> None:
        self.cache[t] = (X, iters)
        bisect.insort(self._ts, t)

    def _anchor(self, candidates):
        last = None
        for t in candidates:
            try:
                X, _, iters = solve_at(self.p, self.path.angles_at(t))
            except NonConvergence as exc:
                last = exc
                continue
            self._store(t, X, iters)
            return
        raise last if last is not None else NonConvergence("no anchor candidates", math.inf)

    def _nearest(self, t: float) -> float:
        i = bisect.bisect_left(self._ts, t)
        if i == 0:
            return self._ts[0]
        if i == len(self._ts):
            return self._ts[-1]
        lo, hi = self._ts[i - 1], self._ts[i]
        return lo if t - lo <= hi - t else hi

    def solution_at(self, t: float) -> np.ndarray:
        if t in self.cache:
            return self.cache[t][0]
        cur = self._nearest(t)
        X, iters = self.cache[cur]
        steps = 0
        dt = t - cur
        while cur != t:
            if steps > self.MAX_STEPS:
                raise NonConvergence(f"continuation exceeded {self.MAX_STEPS} steps", math.inf)
            nxt = t if abs(dt) >= abs(t - cur) else cur + dt
            try:
                X, _, k = solve_at(self.p, self.path.angles_at(nxt), warm_start=X)
            except NonConvergence:
                dt *= 0.5
                if abs(dt) < 1e-6:
                    raise
                continue
            cur = nxt
            iters += k
            self._store(cur, X, iters)
            steps += 1
        return X

    def realization_at(self, t: float) -> Realization:
        X = self.solution_at(t)
        sys_ = _System(self.p)
        angles = self.path.angles_at(t)
        r = sys_.residual(X, sys_.targets(angles))
        return build_realization(self.p, angles, X, float(np.max(np.abs(r))),
                                 self.cache[t][1])


def edge_lengths(r: Realization) -> dict[Edge, float]:
    """Hyperbolic length of every edge with two finite endpoints.

    Raises IdealEndpoint if any edge touches an ideal vertex; callers
    that can tolerate those should filter edges first (see
    finite_edge_lengths).
    """
    out = {}
    for e in r.polyhedron.edges:
        out[e] = edge_length(r, e)
    return out


def edge_length(r: Realization, e: Edge) -> float:
    va, ka = r.vertices[e[0]]
    vb, kb = r.vertices[e[1]]
    if ka != TIMELIKE or kb != TIMELIKE:
        raise IdealEndpoint(f"edge {e} has an ideal endpoint; length is infinite")
    return hyperbolic_distance(va, vb)


def hyperbolic_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Distance between two points of the hyperboloid <x,x> = -1."""
    return math.acosh(max(-mdot(x, y), 1.0))


def finite_edge_lengths(r: Realization) -> dict[Edge, float]:
    out = {}
    for e in r.polyhedron.edges:
        if all(r.vertices[v][1] == TIMELIKE for v in e):
            out[e] = edge_length(r, e)
    return out
