"""Numerical realization in the hyperboloid model.

Face planes are encoded by unit spacelike normals in Minkowski space
(signature -+++), with <e_i, e_j> = -cos(angle) across every edge.
A vertex is the common point of its first three face planes: the null
vector of a 3x4 matrix, whose entries are the matrix's four signed 3x3
minors.  Compact vertices are timelike, ideal vertices null.

The solve is a damped Gauss-Newton iteration on the normals.  The
residual system (unit norms + edge Gram targets + one concurrency
equation per 4-valent ideal apex) is rank-deficient by exactly the
6-dimensional isometry group; minimum-norm least-squares steps handle
that, and the finished solution is moved to a canonical gauge so output
is deterministic: the anchor face normal becomes (0,0,0,1), its first
neighbor lands in the x2=0, x1>=0 half-plane, the third anchor face in
the x0=0 slice.

The residual and Jacobian are gathers over edge-to-face and
apex-to-face index arrays built once per polyhedron.  The same minors,
one gather and one batched ``det``, give the vertices, the apex
cofactors and the gauge frame.  Whether a vertex comes out compact or
ideal is read from the vertex rows of the admissibility table
(``andreev.constraints``).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import andreev
from .poly_model import AbstractPolyhedron, Edge, LabeledPolyhedron, PolyhedronError

METRIC = np.array([-1.0, 1.0, 1.0, 1.0])

RESIDUAL_TOL = 1e-11
MAX_NEWTON_ITERS = 200
MIN_STEP = 1e-14

# classification margins for <v,v> of a normalized direction and for a
# vertex's angle slack in radians
_TYPE_TOL = 1e-7
_SLACK_TOL = 1e-9

SEED_SCALES = (0.3, 0.15, 0.5, 0.08, 0.7)  # sphere-lift heights a cold solve tries


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


# ---------------------------------------------------------------------------
# residual system


class _System:
    """Residual + Jacobian for Gauss-Newton over the stacked normals."""

    def __init__(self, p: AbstractPolyhedron):
        self.nf = len(p.faces)
        self.edges = p.edges
        self.ne = len(self.edges)
        # the two faces of each edge, and the four faces at each 4-valent apex
        self.fi, self.fj = np.array([p.edge_faces[e] for e in self.edges]).T
        apexes = [v for v in sorted(p.ideal_candidates) if p.valence(v) == 4]
        self.apex_faces = np.array([p.vertex_faces[v] for v in apexes], dtype=int).reshape(-1, 4)
        self.n_eq = self.nf + self.ne + len(apexes)

    def residual(self, X: np.ndarray, targets: np.ndarray) -> np.ndarray:
        E = X.reshape(self.nf, 4)
        G = E * METRIC
        nf, ne = self.nf, self.ne
        r = np.empty(self.n_eq)
        r[:nf] = np.einsum("ij,ij->i", G, E) - 1.0
        # batched matmul adds the four products in np.dot's order, which
        # einsum and (a * b).sum(1) do not
        r[nf:nf + ne] = (G[self.fi, None, :] @ E[self.fj, :, None])[:, 0, 0] + targets
        if len(self.apex_faces):
            r[nf + ne:] = np.linalg.det(E[self.apex_faces])
        return r

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        E = X.reshape(self.nf, 4)
        G = E * METRIC
        nf, ne = self.nf, self.ne
        J = np.zeros((self.n_eq, nf * 4))
        blocks = J.reshape(self.n_eq, nf, 4)  # a view: blocks[row, f] = d row / d E[f]
        faces = np.arange(nf)
        blocks[faces, faces] = 2.0 * G
        rows = nf + np.arange(ne)
        blocks[rows, self.fi] = G[self.fj]
        blocks[rows, self.fj] = G[self.fi]
        if len(self.apex_faces):
            rows = nf + ne + np.arange(len(self.apex_faces))
            # d det / d M is the cofactor matrix of M
            blocks[rows[:, None], self.apex_faces] = _cofactors(E[self.apex_faces])
        return J

    def targets(self, angles: dict[Edge, float]) -> np.ndarray:
        return np.array([math.cos(angles[e]) for e in self.edges])


# the indices kept when index i of four is dropped
_KEEP = np.array([[j for j in range(4) if j != i] for i in range(4)])
_SIGNS = (-1.0) ** np.arange(4)


def _null_vectors(M: np.ndarray) -> np.ndarray:
    """Null vectors of a stack of 3x4 matrices: entry j is (-1)^j times
    the determinant of M without column j, so M @ w expands the
    determinant of a 4x4 matrix with a repeated row and vanishes."""
    minors = np.swapaxes(M[..., _KEEP], -3, -2)
    return _SIGNS * np.linalg.det(minors)


def _cofactors(M: np.ndarray) -> np.ndarray:
    """Cofactor matrices of a stack of 4x4 matrices: row i is (-1)^i
    times the null vector of the other three rows."""
    return _SIGNS[:, None] * _null_vectors(M[..., _KEEP, :])


def _newton(sys_: _System, X0: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float, int]:
    X = X0.copy()
    r = sys_.residual(X, targets)
    best = float(np.max(np.abs(r)))
    for it in range(MAX_NEWTON_ITERS):
        rmax = float(np.max(np.abs(r)))
        if rmax <= RESIDUAL_TOL:
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
    if rmax <= RESIDUAL_TOL:
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
    for v, (x, y) in pos.items():
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


def _expected_vertex_kinds(p: AbstractPolyhedron, angles: dict[Edge, float]) -> dict[int, str]:
    """Compact or ideal for each vertex, from the float slack of its
    admissibility row; a slack below the margin is not realizable."""
    kinds = {}
    for row in andreev.constraints(p):
        if row.condition != andreev.VERTEX:
            continue
        slack = sum(angles[e] for e in row.edges) - row.bound * math.pi
        if slack > _SLACK_TOL:
            kinds[row.witness] = andreev.COMPACT
        elif slack >= -_SLACK_TOL:
            kinds[row.witness] = andreev.IDEAL
        else:
            raise RealizationError(
                f"vertex {row.witness} has angle sum below ({row.bound + 2}-2)*pi; "
                "not realizable")
    return kinds


def _compute_vertices(p: AbstractPolyhedron, E: np.ndarray, vertices,
                      kinds: dict[int, str]) -> np.ndarray:
    """One row per listed vertex: the common point of its first three
    face planes, on the future sheet, scaled to <w,w> = -1 when compact
    and to w0 = 1 when ideal.  A row that does not come out of the kind
    ``kinds`` expects raises DegenerateVertex."""
    W = _null_vectors(E[[p.vertex_faces[v][:3] for v in vertices]] * METRIC)
    mw = np.einsum("ij,ij->i", W * METRIC, W)
    q = mw / np.einsum("ij,ij->i", W, W)
    compact = np.array([kinds[v] == andreev.COMPACT for v in vertices])
    for v, c, qv in zip(vertices, compact, q):
        if c and qv > -_TYPE_TOL:
            raise DegenerateVertex(
                f"vertex {v} expected timelike but <v,v>/|v|^2 = {qv:.3e}")
        if not c and abs(qv) > _TYPE_TOL:
            raise DegenerateVertex(
                f"vertex {v} expected null but <v,v>/|v|^2 = {qv:.3e}")
    W *= np.where(W[:, :1] < 0, -1.0, 1.0)
    return W / np.where(compact, np.sqrt(np.abs(mw)), W[:, 0])[:, None]


def _gauge_transform(p: AbstractPolyhedron, E: np.ndarray,
                     vertices: dict[int, tuple[np.ndarray, str]]):
    """Normals and vertices moved by the Lorentz change of basis that
    fixes the canonical gauge."""
    anchor_v = None
    for v in p.vertices:
        if vertices[v][1] == andreev.COMPACT and p.valence(v) == 3:
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
    b2 = _null_vectors(np.array([b0, b1, b3]) * METRIC)
    b2 = b2 / math.sqrt(mdot(b2, b2))
    if mdot(E[fc], b2) < 0:
        b2 = -b2
    # coordinates: x -> (-<x,b0>, <x,b1>, <x,b2>, <x,b3>)
    T = np.vstack([-b0 * METRIC, b1 * METRIC, b2 * METRIC, b3 * METRIC])
    return E @ T.T, {v: (T @ w, kind) for v, (w, kind) in vertices.items()}


# ---------------------------------------------------------------------------
# public entry points


def dof_audit(p: AbstractPolyhedron) -> dict[str, int]:
    sys_ = _System(p)
    unknowns = 4 * sys_.nf
    return {
        "unknowns": unknowns,
        "constraints": sys_.n_eq,
        "gauge": 6,
        "dof": unknowns - sys_.n_eq - 6,
    }


def solve_at(p: AbstractPolyhedron, angles: dict[Edge, float],
             warm_start: np.ndarray | None = None) -> tuple[np.ndarray, float, int]:
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
    for h in SEED_SCALES:
        try:
            return _newton(sys_, _seed(p, h), targets)
        except (NonConvergence, np.linalg.LinAlgError) as exc:
            last = exc if isinstance(exc, NonConvergence) else NonConvergence(str(exc), math.inf)
    raise last


def build_realization(p: AbstractPolyhedron, angles: dict[Edge, float],
                      X: np.ndarray, rmax: float, iters: int) -> Realization:
    kinds = _expected_vertex_kinds(p, angles)
    E = X.reshape(len(p.faces), 4)
    W = _compute_vertices(p, E, p.vertices, kinds)
    vertices = {v: (w, kinds[v]) for v, w in zip(p.vertices, W)}
    E, vertices = _gauge_transform(p, E, vertices)
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
    from .volume import default_path  # volume imports this module

    if regime is None:
        regime = (andreev.ALLOW_IDEAL if lp.base.ideal_candidates
                  else andreev.STRICT_COMPACT)
    report = andreev.check(lp, regime)
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
    ANCHOR_TS = (0.5, 0.75, 0.25, 1.0, 0.125)  # path points tried as the anchor

    def __init__(self, p: AbstractPolyhedron, path):
        self.p = p
        self.path = path
        # t -> (stacked normals, residual, Newton iterations of the solves that reached t)
        self.cache: dict[float, tuple[np.ndarray, float, int]] = {}
        self._ts: list[float] = []  # the cached t, ascending
        self._anchor()

    def _store(self, t: float, X: np.ndarray, rmax: float, iters: int) -> None:
        self.cache[t] = (X, rmax, iters)
        bisect.insort(self._ts, t)

    def _anchor(self):
        last = None
        for t in self.ANCHOR_TS:
            try:
                X, rmax, iters = solve_at(self.p, self.path.angles_at(t))
            except NonConvergence as exc:
                last = exc
                continue
            self._store(t, X, rmax, iters)
            return
        raise last

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
        X, _, iters = self.cache[cur]
        steps = 0
        dt = t - cur
        while cur != t:
            if steps > self.MAX_STEPS:
                raise NonConvergence(f"continuation exceeded {self.MAX_STEPS} steps", math.inf)
            nxt = t if abs(dt) >= abs(t - cur) else cur + dt
            try:
                X, rmax, k = solve_at(self.p, self.path.angles_at(nxt), warm_start=X)
            except NonConvergence:
                dt *= 0.5
                if abs(dt) < 1e-6:
                    raise
                continue
            cur = nxt
            iters += k
            self._store(cur, X, rmax, iters)
            steps += 1
        return X

    def realization_at(self, t: float) -> Realization:
        self.solution_at(t)
        X, rmax, iters = self.cache[t]
        return build_realization(self.p, self.path.angles_at(t), X, rmax, iters)


def edge_lengths(r: Realization) -> dict[Edge, float]:
    """Hyperbolic length of every edge with two compact endpoints; an
    edge at an ideal vertex is infinitely long and left out."""
    return {e: edge_length(r, e) for e in r.polyhedron.edges
            if all(r.vertices[v][1] == andreev.COMPACT for v in e)}


def edge_length(r: Realization, e: Edge) -> float:
    va, ka = r.vertices[e[0]]
    vb, kb = r.vertices[e[1]]
    if ka != andreev.COMPACT or kb != andreev.COMPACT:
        raise IdealEndpoint(f"edge {e} has an ideal endpoint; length is infinite")
    return hyperbolic_distance(va, vb)


def hyperbolic_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Distance between two points of the hyperboloid <x,x> = -1."""
    return math.acosh(max(-mdot(x, y), 1.0))
