"""Numerical realization in the hyperboloid model.

Face planes are encoded by unit spacelike normals in Minkowski space
(signature -+++), with <e_i, e_j> = -cos(angle) across every edge.
Edge lengths are read from the Gram matrix of the normals.  A vertex is
the common point of its first three face planes: the null vector of a
3x4 matrix, whose entries are the matrix's four signed 3x3 minors.
Compact vertices are timelike, ideal vertices null: a realized vertex's
kind is read from the sign of <w,w>/|w|^2, within _TYPE_TOL of zero for
ideal.

The solve is a damped Gauss-Newton iteration on the normals, run on a
stack of rows: one row per angle assignment, one batched solve per
iteration over the rows still iterating, a line search per row.  The
residual system (unit norms + edge Gram targets + one concurrency
equation per 4-valent ideal apex) has 4F - 6 equations in 4F unknowns
and is invariant under the 6-dimensional Lorentz group, so its Jacobian
J annihilates the six gauge tangents at the current normals.  Each step
solves the square system [J; T] x = [-r; 0] with T the tangent rows:
the step solves J x = -r and is orthogonal to the gauge orbit, which is
the minimum-norm Gauss-Newton step wherever J has full row rank.  The
Gram target 0 of a right angle leaves the sign of a face whose edges are
all right angles free, so each normal is first turned away from the
vertices off its face.  The solution is then moved to a canonical gauge,
fixed by the normals alone, so output is deterministic and all-ideal
rows have one too: the sum x of the vertices, each the null vector of
its first three face planes on the future sheet, goes on the time axis
(a sum of future causal vectors, so timelike, and Lorentz-covariant as
the vertices are); face 0 and its first neighbour, projected orthogonal
to x, span the x3 axis and the x2=0, x1>0 half-plane, and the third face
at the first end of their shared edge gets x2>0.  A realization's
vertices and residual come after that, and a residual of the returned
normals above REALIZED_RESIDUAL_TOL raises RealizationError: a face
turned outward against a Gram target other than 0 misses it.

The cold solve, ``solve_at``, starts from one sphere-lift seed: a spring
embedding pinned on the face ``_pinned_face`` picks from the angles,
lifted to the sphere at infinity, where each face plane is a circle
around the face's own lifted vertices, on the side that holds fewer of
the lifted vertices off the face (see ``_seed``).  ``realize`` is
one at the target; on right-angled L(n) it takes 4 to 6 passes up to
n = 100.  ``PathRealizer`` anchors a path by one at its midpoint and
reaches other points by one stacked solve per request, each row
warm-started by one rule from the solutions cached before the request:
interpolated between cached neighbours, linearly in u = sqrt(t), or the
nearer end outside the cached range; a single point is a one-row stack.
Nothing is retried: a failed solve raises NonConvergence.

Index arrays built once per polyhedron, by array operations, and kept on
it drive every pass.  The residual is gathers and batched matmuls.  Every
Newton matrix entry outside the apex rows is one entry of the normals
times +-1 or +-2, so the matrix is one gather, one multiply and one
scatter into zeros, then the apex cofactor rows.  An edge length reads
three 3x3 minors of the Gram matrix of its four faces, C_gg, C_hh and
C_gh, in one batched ``det``.  Signed minors, one gather and one batched
``det``, also give the vertices, the apex cofactors and the gauge frame.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import andreev
from .poly_model import AbstractPolyhedron, Edge, LabeledPolyhedron, PolyhedronError

METRIC = np.array([-1.0, 1.0, 1.0, 1.0])

# the Lorentz algebra so(3,1): A = diag(METRIC) (e_i e_j^T - e_j e_i^T)
# for i < j, stored transposed, since the tangent of the orbit through
# normals E (one per row) along A is E @ A.T
_GAUGE_T = np.array([(METRIC[:, None] * (np.outer(a, b) - np.outer(b, a))).T
                     for a, b in itertools.combinations(np.eye(4), 2)])
# (generator, row, column) of each nonzero: two per generator
_GAUGE_NONZEROS = np.nonzero(_GAUGE_T)

RESIDUAL_TOL = 1e-11
# the largest residual a returned realization may have: above Newton's
# stop, which the gauge's rounding can exceed, and far below the miss of
# a normal turned against a non-right angle
REALIZED_RESIDUAL_TOL = 5e-11
MAX_NEWTON_ITERS = 200
MIN_STEP = 1e-14

# classification margin for <v,v>/|v|^2 of a vertex direction
_TYPE_TOL = 1e-7


class RealizationError(PolyhedronError):
    pass


class LabelingRejected(RealizationError):
    """The labeling fails the admissibility check, so there is nothing to
    solve; ``report`` is the check's."""

    def __init__(self, report: andreev.AndreevReport):
        self.report = report
        super().__init__(f"labeling rejected ({report.reason or report.outcome}); cannot realize")


class NonConvergence(RealizationError):
    def __init__(self, message: str, best_residual: float, row: int = 0):
        self.best_residual = best_residual
        self.row = row  # the failing row of a stacked solve
        self.t = None  # its path parameter, when a PathRealizer stack failed
        super().__init__(f"{message} (best residual {best_residual:.3e})")


class DegenerateVertex(RealizationError):
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


# ---------------------------------------------------------------------------
# residual system


class _System:
    """Gauss-Newton residual and Jacobian, and edge lengths, over stacked normals."""

    def __init__(self, p: AbstractPolyhedron):
        self.nf = nf = len(p.faces)
        self.edges = p.edges
        self.ne = ne = len(self.edges)
        chain = itertools.chain.from_iterable
        verts = np.array(p.vertices)
        # the faces' vertex rows in cycle order, face after face (the ring),
        # and one row per face, padded with row V (cycles, inside)
        self.sizes = sizes = np.fromiter(map(len, p.faces), int, nf)
        ring = np.searchsorted(verts, np.fromiter(chain(p.faces), int))
        self.inside = np.arange(sizes.max()) < sizes[:, None]
        self.cycles = np.full(self.inside.shape, len(verts))
        self.cycles[self.inside] = ring
        # each ring row and the next row in its cycle: every edge once for
        # each of its faces
        last = np.cumsum(sizes)
        succ = np.arange(1, len(ring) + 1)
        succ[last - 1] = last - sizes
        self.ring_a, self.ring_b = ring, ring[succ]
        incidence = np.zeros((len(verts), nf), dtype=bool)
        incidence[ring, np.repeat(np.arange(nf), sizes)] = True
        # each edge's two faces, then the third face at each endpoint: the
        # smallest face there not on the edge, as p.vertex_faces is ascending
        ends = np.fromiter(chain(self.edges), int, 2 * ne).reshape(ne, 2)
        edge_faces = np.fromiter(chain(map(p.edge_faces.__getitem__, self.edges)), int,
                                 2 * ne).reshape(ne, 2)
        self.incidence = incidence
        # each vertex's first three faces, which fix it
        self.corners = np.argsort(~incidence, axis=1, kind="stable")[:, :3]
        third = incidence[np.searchsorted(verts, ends)]
        third[np.arange(ne)[:, None], :, edge_faces] = False
        self.quads = np.concatenate([edge_faces, third.argmax(axis=2)], axis=1)
        self.fi, self.fj = edge_faces.T
        # the four faces at each 4-valent apex
        apexes = [v for v in sorted(p.ideal_candidates) if p.valence(v) == 4]
        self.apex_faces = np.array([p.vertex_faces[v] for v in apexes], dtype=int).reshape(-1, 4)
        # validate leaves E = 3F - 6 - #apex, so n_eq + 6 = 4F: the square Newton solve relies on it
        self.n_eq = nf + ne + len(apexes)
        # every Newton matrix entry outside the apex rows is an entry of X
        # times +-1 or +-2, kept as its flat position, source column and
        # factor: the unit-norm rows (2 G_f), both sides of each Gram row
        # (G_j, G_i) and the six gauge rows, one product per nonzero of
        # their generators
        n = 4 * nf
        cols = np.arange(n).reshape(nf, 4)
        g, m, k = _GAUGE_NONZEROS
        self._pos = np.concatenate([n * np.arange(nf)[:, None] + cols,
                                    (n * (nf + np.arange(ne)))[:, None, None] + cols[edge_faces],
                                    (n * (self.n_eq + g) + k)[:, None] + cols[:, 0]], axis=None)
        self._src = np.concatenate([cols, cols[edge_faces[:, ::-1]], m[:, None] + cols[:, 0]],
                                   axis=None)
        self._factor = np.concatenate([np.tile(2.0 * METRIC, nf), np.tile(METRIC, 2 * ne),
                                       np.repeat(_GAUGE_T[g, m, k], nf)])
        # each apex row's cofactor block, (apex, face, coordinate)
        self._apex_pos = ((n * (nf + ne + np.arange(len(apexes))))[:, None, None]
                          + cols[self.apex_faces])

    def residual(self, X: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Residuals of a stack of rows: X (..., 4F), targets (..., E)."""
        E = X.reshape(X.shape[:-1] + (self.nf, 4))
        G = E * METRIC
        nf, ne = self.nf, self.ne
        r = np.empty(X.shape[:-1] + (self.n_eq,))
        # batched matmul adds the four products in np.dot's order, which
        # einsum and (a * b).sum(1) do not
        r[..., :nf] = (G[..., None, :] @ E[..., :, None])[..., 0, 0] - 1.0
        r[..., nf:nf + ne] = (G[..., self.fi, None, :] @ E[..., self.fj, :, None])[..., 0, 0] + targets
        if len(self.apex_faces):
            r[..., nf + ne:] = np.linalg.det(E[..., self.apex_faces, :])
        return r

    def newton_matrix(self, X: np.ndarray) -> np.ndarray:
        """The Jacobian with the six gauge tangents at X below it, square;
        one (4F, 4F) matrix per row of X (..., 4F): one gather, one
        multiply and one scatter, then the apex rows."""
        n = 4 * self.nf
        K = np.zeros(X.shape[:-1] + (n * n,))
        K[..., self._pos] = X[..., self._src] * self._factor
        if len(self.apex_faces):
            # d det / d M is the cofactor matrix of M
            E = X.reshape(X.shape[:-1] + (self.nf, 4))
            K[..., self._apex_pos] = _cofactors(E[..., self.apex_faces, :])
        return K.reshape(X.shape[:-1] + (n, n))

    def step(self, X: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The Gauss-Newton step of each row of X with residual r: J step
        = -r, and orthogonal to the gauge tangents.  Raises LinAlgError
        when a Newton matrix is singular."""
        rhs = np.zeros(X.shape)
        np.negative(r, out=rhs[..., :self.n_eq])
        return np.linalg.solve(self.newton_matrix(X), rhs[..., None])[..., 0]

    def targets(self, angles: dict[Edge, float]) -> np.ndarray:
        return np.array([math.cos(angles[e]) for e in self.edges])

    def lengths(self, X: np.ndarray, cols) -> np.ndarray:
        """The lengths of edges ``cols`` for each row of X (..., 4F), from
        three cofactors C of the Gram matrix of each edge's faces: cosh
        len = |C_gh| / sqrt(C_gg C_hh), g and h the third faces at its
        ends.  C_gg, the Gram determinant of the faces at the end away
        from g, is positive exactly when that end is compact; else len
        is nan."""
        cgg, chh, cgh = np.moveaxis(self._gram_minors(X, cols), -1, 0)
        ok = (cgg > 0) & (chh > 0)
        cosh = np.abs(cgh) / np.sqrt(np.where(ok, cgg * chh, 1.0))
        return np.where(ok, np.arccosh(np.maximum(cosh, 1.0)), np.nan)

    def open_end(self, x: np.ndarray, col: int) -> int:
        """The end of edge ``col`` not compact at normals x (4F,), the first if neither is."""
        return self.edges[col][int(self._gram_minors(x, [col])[0, 1] > 0)]

    def _gram_minors(self, X: np.ndarray, cols) -> np.ndarray:
        """The minors C_gg, C_hh and +-C_gh of the Gram matrix of each
        edge's faces (fi, fj, g, h), (..., len(cols), 3): the rows and
        columns that ``_cofactors`` keeps for them, in its order."""
        E = X.reshape(X.shape[:-1] + (self.nf, 4))[..., self.quads[cols], :]
        gram = (E * METRIC) @ np.swapaxes(E, -1, -2)
        return np.linalg.det(gram[..., _GRAM_ROWS[:, :, None], _GRAM_COLS[:, None, :]])


def _system(p: AbstractPolyhedron) -> _System:
    """``p``'s residual system, built once and kept on ``p`` like its constraint table."""
    return vars(p).get("_system") or vars(p).setdefault("_system", _System(p))


# the indices kept when index i of four is dropped
_KEEP = np.array([[j for j in range(4) if j != i] for i in range(4)])
_SIGNS = (-1.0) ** np.arange(4)
# the minors of C_gg, C_hh and C_gh: without row and column 2, 3 and (2, 3)
_GRAM_ROWS, _GRAM_COLS = _KEEP[[2, 3, 2]], _KEEP[[2, 3, 3]]


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


def _norms(r: np.ndarray) -> np.ndarray:
    """The 2-norm of each row, summed in np.dot's order as np.linalg.norm
    sums a vector."""
    return np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])


def _newton(sys_: _System, X0: np.ndarray,
            targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Gauss-Newton on a stack of rows, X0 (R, 4F) with targets
    (R, E): per row (X, max residual, steps).

    Each iteration makes one batched solve over the live rows; each row
    takes its own line search and leaves the work set when it converges
    or fails.  When the batched solve is singular, the live rows are
    solved one by one: a singular row fails alone, the others keep their
    step.  The pass after MAX_NEWTON_ITERS steps is the last.  Once
    every row has finished, a failure raises NonConvergence for the
    first failing row, with its index and its own best residual.
    """
    n = len(X0)
    X = X0.copy()
    r = sys_.residual(X, targets)
    norm = _norms(r)
    rmax = np.abs(r).max(axis=1)
    best = rmax.copy()
    steps = np.zeros(n, dtype=int)
    failed: dict[int, tuple[str, float]] = {}
    live = np.arange(n)
    rows = slice(None)  # the live rows: a view, not a gather, while every row is live
    # np.count_nonzero tests a small mask in a fraction of the time of
    # any() and all(), which go through the ufunc reduction machinery
    for it in range(MAX_NEWTON_ITERS + 1):
        done = rmax[rows] <= RESIDUAL_TOL
        if np.count_nonzero(done):
            steps[live[done]] = it
            live = rows = live[~done]
        if not live.size:
            break
        if it == MAX_NEWTON_ITERS:
            failed.update((i, ("Newton iteration limit reached", rmax[i])) for i in live)
            break
        try:
            step = sys_.step(X[rows], r[rows])
        except np.linalg.LinAlgError:
            kept = {}  # one-row solves: a singular row fails alone
            for i in live:
                try:
                    kept[i] = sys_.step(X[[i]], r[[i]])[0]
                except np.linalg.LinAlgError:
                    failed[i] = ("singular Newton matrix", best[i])
            live = rows = np.array(list(kept), dtype=int)
            if not live.size:
                break
            step = np.array(list(kept.values()))
        if live.size < n:  # the line search indexes steps by row
            full = np.zeros_like(X)
            full[rows] = step
            step = full
        # halve each row's step until its residual norm drops
        search, lam = rows, 1.0
        while lam >= MIN_STEP:
            Xn = X[search] + lam * step[search]
            rn = sys_.residual(Xn, targets[search])
            nn = _norms(rn)
            ok = nn < norm[search]
            if np.count_nonzero(ok) == len(ok):
                X[search], r[search], norm[search] = Xn, rn, nn
                break
            search = np.arange(n)[search]
            X[search[ok]], r[search[ok]], norm[search[ok]] = Xn[ok], rn[ok], nn[ok]
            search = search[~ok]
            lam *= 0.5
        else:
            failed.update((i, ("Newton step stagnated", best[i])) for i in search)
            live = rows = live[~np.isin(live, search)]
        rmax[rows] = np.abs(r[rows]).max(axis=1)
        np.minimum(best, rmax, out=best)
    if failed:
        i = min(failed)
        message, residual = failed[i]
        raise NonConvergence(message, float(residual), row=int(i))
    return X, rmax, steps


# ---------------------------------------------------------------------------
# Euclidean-flavored seed


def _pinned_face(p: AbstractPolyhedron, targets: np.ndarray) -> int:
    """The face the seed pins as its outer polygon, for Gram targets
    cos(angle) (E,): among the faces the size of the outer face (the
    largest if none is named), the first whose edge angles, added in
    edge order and rounded to 12 decimals, sum highest.  A small sum
    there can stall the cold solve (cube row 2,2,2,2,3,4,2,2,3,3,2,4)."""
    sys_ = _system(p)
    sizes = sys_.sizes
    size = sizes.max() if p.outer_face is None else sizes[p.outer_face]
    sums = np.bincount(np.concatenate([sys_.fi, sys_.fj]), np.tile(np.arccos(targets), 2),
                       sys_.nf).round(12)
    return int(np.argmax(np.where(sizes == size, sums, -1.0)))


def _tutte_positions(p: AbstractPolyhedron, a: np.ndarray, b: np.ndarray,
                     pinned: np.ndarray) -> np.ndarray:
    """Planar spring embedding with the vertices ``pinned`` on a polygon,
    in their order; one row per vertex, in ``p.vertices`` order.  Arrays
    a and b hold the ends of every edge, an edge once for each of its
    faces, so a vertex's valence is the number of times it is in a."""
    n = len(p.vertices)
    A = np.zeros((n, n))
    A[a, b] = A[b, a] = -1.0
    A.flat[::n + 1] = np.bincount(a, minlength=n)
    # a pinned vertex's row only fixes it in place
    A[pinned] = 0.0
    A[pinned, pinned] = 1.0
    rhs = np.zeros((n, 2))
    k = len(pinned)
    rhs[pinned] = [(2.0 * math.cos(ang), 2.0 * math.sin(ang))
                   for ang in (2 * math.pi * j / k for j in range(k))]
    return np.linalg.solve(A, rhs)


def _seed(p: AbstractPolyhedron, targets: np.ndarray) -> np.ndarray:
    """The cold start for Gram targets (E,), stacked normals (4F,): the
    spring embedding, ``_pinned_face`` on the outer polygon, lifted
    to the unit sphere by inverse stereographic projection, and each face
    plane meeting the sphere at infinity in a circle around the face's
    own lifted vertices.  The circle's centre c is the direction of their
    sum; with rho the largest angle between c and one of them, the normal
    is (h, sqrt(1 + h^2) c) with h = 0.8 cot rho, a circle of angular
    radius arccot h, a little wider than the face.  A face whose vertex
    sum vanishes points along the pole, up for the pinned face.  A plane
    with more of the lifted vertices off its face on its outer side,
    <(1, s), e_f> > 0, than on its inner side is negated: a large face's
    circle can hold most of them, and Newton keeps the side it starts on
    (the 7-prism with 3 on its heptagons converged on a heptagon turned
    inward)."""
    sys_ = _system(p)
    n, nf = len(p.vertices), sys_.nf
    cycles, inside = sys_.cycles, sys_.inside
    outer = _pinned_face(p, targets)
    xy = _tutte_positions(p, sys_.ring_a, sys_.ring_b, cycles[outer, :sys_.sizes[outer]])
    r2 = xy[:, 0] * xy[:, 0] + xy[:, 1] * xy[:, 1]
    # the lifted vertices, then the zero row n
    sph = np.empty((n + 1, 3))
    sph[:n, :2] = 2 * xy
    sph[:n, 2] = r2 - 1.0
    sph[:n] /= (r2 + 1.0)[:, None]
    sph[n] = 0.0
    S = sph[cycles]
    # each face's rows added in cycle order, one place at a time: the last
    # of the running sums
    c = np.add.accumulate(S, axis=1)[:, -1]
    nrm = _norms(c)
    flat = nrm < 1e-9
    if flat.any():
        c[flat] = 0.0
        c[flat, 2] = np.where(np.flatnonzero(flat) == outer, 1.0, -1.0)
        nrm[flat] = 1.0
    c /= nrm[:, None]
    cos_rho = np.minimum.reduce(S[..., 0] * c[:, None, 0] + S[..., 1] * c[:, None, 1]
                                + S[..., 2] * c[:, None, 2], axis=1, where=inside, initial=1.0)
    h = 0.8 * cos_rho / np.sqrt(1.0 - cos_rho * cos_rho)
    X = np.empty((nf, 4))
    X[:, 0] = h
    X[:, 1:] = np.sqrt(1.0 + h * h)[:, None] * c
    # <(1, s), e_f> of each lifted vertex s
    side = sph[:n] @ X[:, 1:].T - X[:, 0]
    off = ~sys_.incidence
    flip = np.count_nonzero((side > 0) & off, axis=0) > np.count_nonzero((side < 0) & off, axis=0)
    X[flip] = -X[flip]
    return X.ravel()


# ---------------------------------------------------------------------------
# vertices and gauge


def _compute_vertices(p: AbstractPolyhedron, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices from null vectors W (V, 4) of their first three face
    planes: on the future sheet, scaled to <w,w> = -1 when compact and to
    w0 = 1 when ideal; and the compact mask, q = <w,w>/|w|^2 < -_TYPE_TOL.
    An ideal vertex has |q| <= _TYPE_TOL; a spacelike one raises
    DegenerateVertex."""
    mw = -W[:, 0] ** 2 + W[:, 1] ** 2 + W[:, 2] ** 2 + W[:, 3] ** 2  # <w,w>, left to right
    q = mw / np.einsum("ij,ij->i", W, W)
    compact = q < -_TYPE_TOL
    bad = np.flatnonzero(~compact & (np.abs(q) > _TYPE_TOL))
    if bad.size:
        k = bad[0]
        raise DegenerateVertex(f"vertex {p.vertices[k]} is spacelike: "
                               f"<v,v>/|v|^2 = {q[k]:.3e}")
    W = W * np.where(W[:, :1] < 0, -1.0, 1.0)
    return W / np.where(compact, np.sqrt(np.abs(mw)), W[:, 0])[:, None], compact


def _orient(p: AbstractPolyhedron, E: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normals E (F, 4), each turned away from the vertices W (V, 4)
    off its face, W on the future sheet, and the indices of the faces it
    turned.  A Gram target 0 leaves the sign of a face whose edges are
    all right angles free, so the solve can return it reversed; a face
    with vertices off it on both sides raises RealizationError."""
    side = (W * METRIC) @ E.T  # <w, e_f>
    off = ~_system(p).incidence
    above = ((side > 0) & off).any(axis=0)
    split = np.flatnonzero(above & ((side < 0) & off).any(axis=0))
    if split.size:
        raise RealizationError(f"face {split[0]} has vertices off it on both sides of its plane")
    return np.where(above[:, None], -E, E), np.flatnonzero(above)


def _gauge_transform(p: AbstractPolyhedron, E: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Lorentz change of basis T (4, 4) to the canonical gauge, with
    time axis along the future timelike vector x and the other axes read
    from the normals E (F, 4) (see the module docstring): a vector moves
    to T times it, so the normals to E @ T.T.  An x that is not timelike,
    a sum with a spacelike vertex in it, raises DegenerateVertex."""
    if not (xx := mdot(x, x)) < 0:
        raise DegenerateVertex(f"the vertex sum is not timelike: <x,x> = {xx:.3e}")
    b0 = x / math.sqrt(-xx)
    fb = p.face_neighbors[0][0]
    fc = next(f for f in p.vertex_faces[p.face_adjacency[0, fb][0]] if f not in (0, fb))
    # b0 spans time, so adding <e,b0> b0 projects e onto its orthogonal space
    w = E[0] + mdot(E[0], b0) * b0
    b3 = w / math.sqrt(mdot(w, w))
    w = E[fb] + mdot(E[fb], b0) * b0 - mdot(E[fb], b3) * b3
    b1 = w / math.sqrt(mdot(w, w))
    # complete the frame: b2 = Minkowski-orthogonal complement of (b0,b1,b3)
    b2 = _null_vectors(np.array([b0, b1, b3]) * METRIC)
    b2 = b2 / math.sqrt(mdot(b2, b2))
    if mdot(E[fc], b2) < 0:
        b2 = -b2
    # coordinates: x -> (-<x,b0>, <x,b1>, <x,b2>, <x,b3>)
    return np.vstack([-b0 * METRIC, b1 * METRIC, b2 * METRIC, b3 * METRIC])


# ---------------------------------------------------------------------------
# public entry points


def dof_audit(p: AbstractPolyhedron) -> dict[str, int]:
    sys_ = _system(p)
    unknowns = 4 * sys_.nf
    return {
        "unknowns": unknowns,
        "constraints": sys_.n_eq,
        "gauge": 6,
        "dof": unknowns - sys_.n_eq - 6,
    }


def solve_at(p: AbstractPolyhedron, angles: dict[Edge, float]) -> tuple[np.ndarray, float, int]:
    """The cold solve of the Gram system at one angle assignment.

    Returns the raw (ungauged) stacked normals, max residual, iteration
    count.  One Newton solve runs, from the sphere-lift seed; its
    NonConvergence goes to the caller.  Warm starts are PathRealizer's.
    """
    sys_ = _system(p)
    targets = sys_.targets(angles)
    X, rmax, iters = _newton(sys_, _seed(p, targets)[None], targets[None])
    return X[0], float(rmax[0]), int(iters[0])


def build_realization(p: AbstractPolyhedron, angles: dict[Edge, float],
                      X: np.ndarray, iters: int) -> Realization:
    """The gauge-fixed realization of the raw normals X, a solution of
    the Gram system, each turned outward first (``_orient``); its
    vertices are the ones ``_orient`` reads, moved by the gauge's Lorentz
    matrix T, whose time axis is their sum, and its residual is the
    largest residual of the normals it returns.  A residual above
    REALIZED_RESIDUAL_TOL raises RealizationError naming the faces
    ``_orient`` turned."""
    sys_ = _system(p)
    E = X.reshape(sys_.nf, 4)
    W = _null_vectors(E[sys_.corners] * METRIC)
    W = W * np.where(W[:, :1] < 0, -1.0, 1.0)  # on the future sheet
    E, turned = _orient(p, E, W)
    T = _gauge_transform(p, E, W.sum(axis=0))
    E = E @ T.T
    residual = float(np.abs(sys_.residual(E.ravel(), sys_.targets(angles))).max())
    if not residual <= REALIZED_RESIDUAL_TOL:
        raise RealizationError(f"the outward normals miss their targets by {residual:.3e} > "
                               f"{REALIZED_RESIDUAL_TOL:g}; faces turned outward: "
                               f"{turned.tolist()}")
    W, compact = _compute_vertices(p, W @ T.T)
    vertices = {v: (w, andreev.COMPACT if c else andreev.IDEAL)
                for v, w, c in zip(p.vertices, W, compact.tolist())}
    return Realization(polyhedron=p, angles=dict(angles), normals=dict(enumerate(E)),
                       vertices=vertices, residual=residual,
                       dof_audit=dof_audit(p), newton_iters=iters)


def realize(lp: LabeledPolyhedron, regime: str | None = None) -> Realization:
    """Realize a labeled polyhedron by one cold ``solve_at`` at its
    angles, reporting that solve's iterations.  The labeling is checked
    first, in ``regime`` or else ``andreev.default_regime``; one that
    fails raises LabelingRejected.

    The realization is kept on ``lp``, one per regime, like the residual
    system on its polyhedron: a second call returns the same object, so
    every caller shares it and none may change it.
    """
    regime = regime or andreev.default_regime(lp.base)
    kept = vars(lp).setdefault("_realizations", {})
    if regime not in kept:
        report = andreev.check(lp, regime)
        if not report.realizable:
            raise LabelingRejected(report)
        angles = lp.angles()
        X, _, iters = solve_at(lp.base, angles)
        kept[regime] = build_realization(lp.base, angles, X, iters)
    return kept[regime]


class PathRealizer:
    """Continuation cache along a deformation path, on the path's polyhedron.

    One cold solve at ANCHOR_T anchors the path.  ``solutions_at(ts)``
    solves every uncached t in one stacked Gauss-Newton call, each row
    warm-started from the solutions cached before the call: a t between
    two cached points starts from their solutions interpolated linearly
    in u = sqrt(t), the variable of the volume quadrature, in which the
    solutions are smooth at a collapse start; a t outside the cached
    range starts from the nearer end, since extrapolation can overshoot.
    ``solution_at(t)`` is the one-row case.  Solutions are cached only
    when they converge, and requests issued in a fixed order produce
    bit-identical results.  ``solves`` and ``newton_iters`` count the
    rows solved and their Gauss-Newton iterations; ``passes`` counts the
    stacked passes, each stack's largest per-row iteration count summed
    over the stacks, which is what the iterations cost.
    """

    ANCHOR_T = 0.5

    def __init__(self, path):
        self.path = path
        X, _, iters = solve_at(path.polyhedron, path.angles_at(self.ANCHOR_T))
        self.cache: dict[float, np.ndarray] = {self.ANCHOR_T: X}  # t -> stacked normals
        self.solves = 1
        self.newton_iters = self.passes = iters

    def solution_at(self, t: float) -> np.ndarray:
        """The solution at ``t``: a one-row ``solutions_at``."""
        return self.solutions_at([t])[0]

    def solutions_at(self, ts) -> np.ndarray:
        """The solutions at ``ts``, one row each.  When a row of the stack
        fails, NonConvergence is raised for the smallest failing t, with
        its ``t`` set."""
        todo = sorted(set(map(float, ts)) - self.cache.keys())
        if todo:
            known = sorted(self.cache)
            starts = [self._start(known, t) for t in todo]
            try:
                X, _, iters = _newton(_system(self.path.polyhedron), np.array(starts),
                                      np.cos(self.path.angle_rows(todo)))
            except NonConvergence as exc:
                exc.t = todo[exc.row]
                raise
            self.cache.update(zip(todo, X))
            self.solves += len(todo)
            self.newton_iters += int(iters.sum())
            self.passes += int(iters.max())
        return np.array([self.cache[t] for t in ts])

    def _start(self, known: list[float], t: float) -> np.ndarray:
        """The warm start for an uncached ``t`` from the cached points
        ``known`` (ascending): between two of them, their solutions
        interpolated linearly in u = sqrt(t); outside their range, the
        nearer end's."""
        j = bisect.bisect(known, t)
        if j == 0 or j == len(known):
            return self.cache[known[min(j, len(known) - 1)]]
        xa, xb = self.cache[known[j - 1]], self.cache[known[j]]
        ua, ub = math.sqrt(known[j - 1]), math.sqrt(known[j])
        if ub == ua:  # rounding merged the two u
            return xa
        w = (math.sqrt(t) - ua) / (ub - ua)
        return xa + w * (xb - xa)


def edge_lengths(r: Realization) -> dict[Edge, float]:
    """Hyperbolic length of every edge with two compact endpoints, read
    from the Gram matrix of the realized normals; an edge at an ideal
    vertex is infinitely long and left out."""
    p = r.polyhedron
    cols = [k for k, e in enumerate(p.edges)
            if all(r.vertices[v][1] == andreev.COMPACT for v in e)]
    lens = _system(p).lengths(np.concatenate([r.normals[f] for f in range(len(p.faces))]), cols)
    return {p.edges[k]: length for k, length in zip(cols, lens.tolist())}
