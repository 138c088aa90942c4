"""Hyperbolic volume: a labeling's from its realization, by Kellerhals'
orthoscheme sum, and a path's change of volume, by Schlaefli's formula.

A labeling's volume is ``orthoscheme_volume`` of its one cold
``realization.realize`` (Kellerhals, "On the volume of hyperbolic
polyhedra", Math. Ann. 1989).  O is the origin of the hyperboloid, which
the realization's gauge puts at the normalized vertex sum, an interior
point.  For each face f, each edge fg of it and each end v of that
edge, (v, Q, P_f, O) is an orthoscheme: P_f is the foot of O on f and Q
its foot on the edge line.  Its volume is Lobachevsky's formula in its
essential angles, at OP_f, Ov and Qv, and the polyhedron is the signed
sum of the 4E orthoschemes.  Every angle is read from inner products of
the normals, each normalized to <e,e> = 1, with O: a = <O,e_f>,
b = <O,e_g>, c = <e_f,e_g>.  Q is O minus its projection on e_f and
e_g, normalized; t is the edge's unit tangent at Q; the end whose third
face is h sits at tanh y = -<Q,e_h>/<t,e_h>, which an ideal end clips to
+-1, so no vertex vector enters.  With x the distance from P_f to the
edge, sinh x = -(b - ac) / (sin theta cosh h), h the distance from O to
f (sinh h = -a), the essential angles are tan alpha1 = tanh|y| /
|sinh x| and tan alpha3 = tanh h / |sinh x|; Lobachevsky's delta has
tan delta = tanh|y| tan alpha3, and cos alpha2 = cos phi sin alpha3,
tan phi = tanh|x| / sinh|y|.  With y rising from the edge's first end
to its second, the second end counts with sign(x) sign(y) and the first
with -sign(x) sign(y).  All 7 * 4E Lobachevsky arguments go to one
``lob_array`` call.

The error estimate of a labeling's volume is Schlaefli's first order in
the realized angles' miss, 1/2 sum_e len_e |theta_e(realized) -
theta_e(target)|, plus a rounding floor: ORTHOSCHEME_ROUNDING = 1e-15
per orthoscheme, times cosh of the distance from O to its face.  On the
216 Lambert triples |V - Kellerhals| exceeds the first-order term by at
most 1.8e-15, where the floor is about 5e-14.  An edge's length is
y2 - y1; an ideal end is cut where its realized tanh y puts it, 1 -
|tanh y| being its own miss of the ideal point, at least one ulp.  A
realization that misses an ideal vertex's angle sum by d moves the
volume by about d times that length: on pyramid row 2,2,3,3 a miss of
5.7e-14 per angle moved it by 1.8e-13, twice the estimate that a
horosphere through O, cutting those lengths near 1, would give.

A path's change of volume, ``schlafli_volume`` of a ``DeformationPath``:
for a one-parameter family of 3-dimensional polyhedra,
-2 dV/dt = sum_e len_e(t) * dtheta_e/dt, and the integral of the right
side along an angle path depends only on its two ends (Milnor).  A path
is one straight segment, from start angles to end angles over t in
[0, 1], and its integral is V(end) - V(start); a detour is a chain of
segments, and its integral the sum of theirs.  ``angle_rows`` is the
segment's one interpolation, the angles at one t its one-row case; their
t-derivative is the constant row end - start.  ``default_path`` runs
from the collapse configuration, obtained by shrinking every angle's
deviation from pi/2 until an admissibility constraint becomes an
equality, to a labeling's angles.

Near a collapse end the integrand grows like sqrt(t); integrating in
u, with t = u^2, makes it smooth on all of [0, 1], where Gauss-Legendre
rules converge in a few dozen nodes.

Edges whose angle is constant along the path contribute nothing and are
excluded before evaluation; this is what keeps ideal-apex families
integrable (their infinite edges all carry constant right angles).  The
first two rules, which always run, are evaluated in one stack, and each
later rule in one more: one stacked Gauss-Newton solve realizes every
node, each warm-started from the solutions cached before the stack,
interpolated between cached neighbours, and one batched pass reads the
varying edges' lengths from the Gram matrices of their faces
(``realization._System.lengths``); a path that varies an edge at a
vertex ideal at the target raises IdealEdge.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .andreev import VERTEX, constraints
from .lobachevsky import lob_array
from .poly_model import AbstractPolyhedron, Edge, LabeledPolyhedron, PolyhedronError
from .realization import (METRIC, LabelingRejected, NonConvergence, PathRealizer, Realization,
                          RealizationError, RESIDUAL_TOL, _system, realize)

DEFAULT_TOL = 1e-8
# the orthoscheme sum's rounding floor, per orthoscheme and per unit of
# cosh h, h the distance from O to its face: about 4.5 ulp of 1.  The sum
# on float normals was measured against the same sum at 40 digits: on 72
# Lambert triples and right-angled L(5..150) it is off by at most 0.29 ulp
# per orthoscheme and unit of cosh h
ORTHOSCHEME_ROUNDING = 1e-15
# the least miss of an ideal point that an edge end's length admits
_EPS = np.finfo(float).eps
QUAD_START_NODES = 8
QUAD_MAX_NODES = 256
# margin for a vertex row's float angle slack, in radians, at the target
_SLACK_TOL = 1e-9


class VolumeError(PolyhedronError):
    pass


class IdealEdge(VolumeError):
    pass


class PathRealizationFailure(VolumeError):
    def __init__(self, t: float, cause: Exception):
        self.t = t
        super().__init__(f"realization failed at path parameter t={t}: {cause}")


@dataclass(frozen=True, eq=False)
class DeformationPath:
    """Straight angle path: ``table`` is a read-only (2, E) array, the
    start angles and then the end angles, columns in ``polyhedron.edges``
    order; at t in [0, 1] the angles are (1 - t) start + t end."""

    polyhedron: AbstractPolyhedron
    table: np.ndarray

    def __post_init__(self):
        table = np.array(self.table, dtype=float)
        if table.shape != (2, len(self.polyhedron.edges)):
            raise ValueError("need a table of two rows, start and end, one column per edge")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @staticmethod
    def from_configs(p: AbstractPolyhedron, configs) -> "DeformationPath":
        if any(cfg.keys() != set(p.edges) for cfg in configs):
            raise ValueError("every configuration must list exactly the polyhedron's edges")
        return DeformationPath(p, [[cfg[e] for e in p.edges] for cfg in configs])

    def angles_at(self, t: float) -> dict[Edge, float]:
        """The angles at ``t``: the one-row case of ``angle_rows``."""
        return dict(zip(self.polyhedron.edges, self.angle_rows([t])[0].tolist()))

    def angle_rows(self, ts) -> np.ndarray:
        """The angles at each of ``ts``, a (len(ts), E) array with
        columns in ``polyhedron.edges`` order: with start a and end b,
        an angle is (1 - t) a + t b."""
        a, b = self.table
        t = np.asarray(ts, dtype=float)[:, None]
        return (1 - t) * a + t * b

    @functools.cached_property
    def varying_edges(self) -> tuple[Edge, ...]:
        """The edges whose end angle differs from their start angle."""
        moved = np.abs(self.table[1] - self.table[0]) > 1e-15
        return tuple(itertools.compress(self.polyhedron.edges, moved))

    @property
    def target_angles(self) -> dict[Edge, float]:
        return dict(zip(self.polyhedron.edges, self.table[1].tolist()))


# ---------------------------------------------------------------------------
# default (linear-from-collapse) path construction


def collapse_fraction(p: AbstractPolyhedron, target: dict[Edge, float]) -> float:
    """Largest s in [0, 1) at which scaling every angle's deviation from
    pi/2 by s makes some decisive circuit or face row of the
    admissibility table an equality.

    A target on such a row's bound or past it raises VolumeError before
    any solve.  Vertex rows are skipped: for an admissible target they
    bind at s = 1 at the earliest, and an ideal vertex's row would bind
    there exactly, which rounding can put just below 1.
    """
    dev = {e: target[e] - math.pi / 2 for e in target}
    s0 = 0.0
    for row in constraints(p):
        if row.informational or row.condition == VERTEX:
            continue
        base = len(row.edges) * math.pi / 2
        bound = row.bound * math.pi
        slope = sum(dev[e] for e in row.edges)
        if base + slope >= bound - 1e-12:
            raise VolumeError(f"target sits on an admissibility boundary or past it: "
                              f"condition {row.condition} row {row.witness}")
        if base >= bound:  # fails at the start, so slope < 0
            s0 = max(s0, (bound - base) / slope)
    return s0


def default_path(p: AbstractPolyhedron, target: dict[Edge, float]) -> DeformationPath:
    """Linear path on ``p`` from the collapse configuration to the
    target angles; a labeling passes ``lp.base, lp.angles()``."""
    s0 = collapse_fraction(p, target)
    row = np.array([target[e] for e in p.edges])
    return DeformationPath(p, [math.pi / 2 + s0 * (row - math.pi / 2), row])


# ---------------------------------------------------------------------------
# quadrature


@functools.cache
def _squared_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule in u on [0, 1], mapped through
    t = u^2: (t nodes ascending, weights w_i * u_i summing to 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    rule = (u * u, w * u)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def segment_quadrature(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Integrate f over [a, b] in u, with t = a + (b - a) u^2, which
    absorbs a sqrt(t - a) behaviour at a.

    Gauss-Legendre rules of 8, 16, 32, ... nodes in u run until two
    successive rules agree within tol or QUAD_MAX_NODES is reached.  f
    takes an array of nodes and returns its values there: the first two
    rules, which always run, in one call (the 8 nodes ascending in t,
    then the 16), then one rule per call, ascending.  Each rule's
    weights are summed over its own values.  Returns the finer value and
    |Q_2n - Q_n|.
    """
    n = QUAD_START_NODES
    first = [_squared_rule(n), _squared_rule(2 * n)]
    values = np.split(f(a + (b - a) * np.concatenate([nodes for nodes, _ in first])), [n])
    prev, q = ((b - a) * float(weights @ v) for (_, weights), v in zip(first, values))
    n *= 2
    while not (abs(q - prev) <= tol or n >= QUAD_MAX_NODES):
        n *= 2
        nodes, weights = _squared_rule(n)
        prev, q = q, (b - a) * float(weights @ f(a + (b - a) * nodes))
    return q, abs(q - prev)


# ---------------------------------------------------------------------------
# the Schlaefli integrator


@dataclass(frozen=True)
class VolumeResult:
    """A volume, its error estimate and the work behind it.

    For a labeling: ``nodes`` is the number of orthoschemes summed, 4E;
    ``solves`` is 1, the realization's cold solve; ``newton_iters`` and
    ``passes`` are both that solve's Gauss-Newton iterations.  For a
    path: ``nodes`` counts integrand nodes, ``solves`` the rows solved,
    anchor included, ``newton_iters`` their iterations summed, and
    ``passes`` each stack's largest row count, summed over the stacks.
    """

    volume: float
    error_estimate: float
    nodes: int
    solves: int = 0
    newton_iters: int = 0
    passes: int = 0


class _Integrand:
    """len-weighted angle-velocity sum along ``path``, with realization cache.

    The varying edges' endpoints must be compact at the target: checked
    on the float slack of the vertex rows there, a vertex below its
    bound raises RealizationError, and a varying edge at a vertex on it
    IdealEdge.  A vertex row's slack is linear in t, and on the default
    path it is positive at the start too, so these vertices are compact
    at every node.  On an explicit path that starts where one is not,
    its edges' lengths come out nan near the start and the node raises
    PathRealizationFailure naming it.
    """

    def __init__(self, path: DeformationPath):
        self.calls = 0
        p = path.polyhedron
        target = path.target_angles
        ideal = set()
        for row in constraints(p):
            if row.condition != VERTEX:
                continue
            slack = sum(target[e] for e in row.edges) - row.bound * math.pi
            if slack < -_SLACK_TOL:
                raise RealizationError(
                    f"vertex {row.witness} has angle sum below ({row.bound + 2}-2)*pi; "
                    "not realizable")
            if slack <= _SLACK_TOL:
                ideal.add(row.witness)
        for e in path.varying_edges:
            if ideal.intersection(e):
                raise IdealEdge(
                    f"path varies the angle of edge {e}, which has an ideal endpoint")
        # each varying edge's column in the angle rows, and its constant velocity
        self.cols = [p.edges.index(e) for e in path.varying_edges]
        self.velocity = (path.table[1] - path.table[0])[self.cols]
        self.system = _system(p)
        try:
            self.walker = PathRealizer(path)
        except RealizationError as exc:
            raise PathRealizationFailure(PathRealizer.ANCHOR_T, exc)

    def lengths_at(self, ts) -> np.ndarray:
        """The varying edges' lengths at each of ``ts``, one row each: one
        stacked solve for the uncached ts and one Gram-matrix pass."""
        try:
            X = self.walker.solutions_at(ts)
        except NonConvergence as exc:
            raise PathRealizationFailure(exc.t, exc)
        lens = self.system.lengths(X, self.cols)
        if np.isnan(lens).any():
            row, k = np.argwhere(np.isnan(lens))[0]
            v = self.system.open_end(X[row], self.cols[k])
            raise PathRealizationFailure(float(ts[row]), RealizationError(
                f"vertex {v} is not compact"))
        return lens

    def __call__(self, ts) -> np.ndarray:
        self.calls += len(ts)
        return (self.lengths_at(ts) * self.velocity).sum(axis=1)


def schlafli_volume(target: DeformationPath | LabeledPolyhedron,
                    tol: float = DEFAULT_TOL) -> VolumeResult:
    """A labeling's volume, or a path's change of volume.

    A labeling's volume is ``orthoscheme_volume`` of ``realize(target)``,
    which reuses the realization kept on the labeling; ``tol`` is not
    used.  A labeling the admissibility check rejects raises VolumeError
    naming every decisive condition it fails, before any solve.

    A path's is V(end) - V(start): -1/2 sum len_e dtheta_e integrated
    along it, over its whole length by segment_quadrature to ``tol``.
    The error estimate is half |Q_2n - Q_n| of the last two rules, plus
    a realization floor: every length comes from a Newton solve stopped
    at a residual of RESIDUAL_TOL, so both rules carry errors of that
    order, weighted by the total angle travel sum_e |dtheta_e| of the path.

    A tol that is not positive, NaN included, raises ValueError.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if isinstance(target, LabeledPolyhedron):
        try:
            return orthoscheme_volume(realize(target))
        except LabelingRejected as exc:
            failed = [f"condition {c.condition}" for c in exc.report.conditions
                      if not (c.passed or c.informational)]
            raise VolumeError(f"labeling rejected ({', '.join(failed) or exc.report.reason}); "
                              "no volume") from exc
    path = target
    if not path.varying_edges:
        return VolumeResult(volume=0.0, error_estimate=0.0, nodes=0)
    f = _Integrand(path)
    q, d = segment_quadrature(f, 0.0, 1.0, tol)
    # a plain sum in edge order, not np.sum's pairwise one
    travel = sum(np.abs(path.table[1] - path.table[0]).tolist())
    return VolumeResult(volume=-0.5 * q, error_estimate=0.5 * (d + RESIDUAL_TOL * travel),
                        nodes=f.calls, solves=f.walker.solves,
                        newton_iters=f.walker.newton_iters, passes=f.walker.passes)


# ---------------------------------------------------------------------------
# the orthoscheme sum


# row 3j + k is e_j cross e_k: the outer product of x and y, flattened,
# times _LEVI is x cross y
_LEVI = np.cross(np.eye(3)[:, None], np.eye(3)[None, :]).reshape(9, 3)
# Lobachevsky's orthoscheme formula: the weights of its seven terms
_LOB_WEIGHTS = 0.25 * np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 2.0])


def orthoscheme_volume(r: Realization) -> VolumeResult:
    """The volume of the realized polyhedron ``r``, the signed sum of its
    4E orthoschemes (see the module docstring), with its first-order
    error against ``r``'s target angles.

    Every inner product is an entry of the Gram matrix of the normalized
    normals, gathered per edge for its faces f, g and the third faces
    h1, h2 at its ends.  With s = sin theta = sqrt(1 - c^2), the end at
    h sits at tanh y = -(a_h s^2 - (a - bc) <e_f,e_h> - (b - ac)
    <e_g,e_h>) / (s [e_f e_g e_h]), [.] the triple product of the spatial
    parts: <Q,e_h> cosh d is the bracket over s^2, and <t,e_h> cosh d is
    [e_f e_g e_h] / s.
    """
    p = r.polyhedron
    sys_ = _system(p)
    E = np.array(list(map(r.normals.__getitem__, range(sys_.nf))))
    E /= np.sqrt((E * METRIC * E).sum(axis=1))[:, None]
    EM = E * METRIC
    quads = sys_.quads
    # per edge: <e_f, e_k> and <e_g, e_k> for k = f, g, h1, h2, and a_k = <O,e_k>
    gram = (EM @ E.T)[quads[:, :2, None], quads[:, None, :]]
    a = -E[quads, 0]
    c = gram[:, 0, 1]
    sin2 = (1.0 - c) * (1.0 + c)
    sin_theta = np.sqrt(sin2)
    # per (edge, face): the face's own a and the other face's b
    own, other = a[:, :2], a[:, 1::-1]
    bac = other - own * c[:, None]
    spatial = E[:, 1:]
    cross = (spatial[sys_.fi, :, None] * spatial[sys_.fj, None, :]).reshape(-1, 9) @ _LEVI
    triple = (spatial[quads[:, 2:]] * cross[:, None, :]).sum(axis=2)
    onto = a[:, 2:] * sin2[:, None] - bac[:, 1:] * gram[:, 0, 2:] - bac[:, :1] * gram[:, 1, 2:]
    T = -onto / (sin_theta[:, None] * triple)
    # t oriented so that y rises from the first end to the second
    T *= np.where(T[:, :1] > T[:, 1:], -1.0, 1.0)
    # each end's length from Q, to where its own miss of an ideal point,
    # 1 - |tanh y| (at least one ulp), puts it
    Ty = np.abs(T)
    y = np.copysign(np.arctanh(1.0 - np.maximum(np.abs(1.0 - Ty), _EPS)), T)
    np.minimum(Ty, 1.0, out=Ty)
    # per (edge, face): tan alpha3 = -a s / |b - ac| = s3 / c3, and
    # |sinh x| = u, x the distance from P_f to the edge
    s3, c3 = -own * sin_theta[:, None], np.abs(bac)
    cosh_h = np.sqrt(1.0 + own * own)
    u = c3 / (sin_theta[:, None] * cosh_h)
    alpha3 = np.arctan2(s3, c3)
    # beta = pi/2 - alpha2, with tan beta = tanh|y| s3 / sqrt(tanh^2 y c3^2
    # + off (1 - tanh^2 y)) and off = tanh^2 x (s3^2 + c3^2)
    off = u * u / (1.0 + u * u) * (s3 * s3 + c3 * c3)
    # per (edge, face, end)
    s3, c3, u, off = s3[..., None], c3[..., None], u[..., None], off[..., None]
    Ty, sech2_y = Ty[:, None, :], ((1.0 - Ty) * (1.0 + Ty))[:, None, :]
    alpha1 = np.arctan2(Ty, u)
    delta = np.arctan2(Ty * s3, c3)
    beta = np.arctan2(Ty * s3, np.sqrt(Ty * Ty * c3 * c3 + off * sech2_y))
    args = np.empty((7,) + delta.shape)
    np.add(alpha1, delta, out=args[0])
    np.subtract(alpha1, delta, out=args[1])
    np.add(alpha3[..., None], delta, out=args[2])
    np.subtract(alpha3[..., None], delta, out=args[3])
    np.add(beta, delta, out=args[4])
    np.subtract(beta, delta, out=args[5])
    np.subtract(0.5 * math.pi, delta, out=args[6])
    pieces = _LOB_WEIGHTS @ lob_array(args.reshape(7, -1))
    # the second end with sign(x) sign(y), the first with -sign(x) sign(y)
    sign = (-np.sign(bac))[..., None] * (np.sign(T) * [-1.0, 1.0])[:, None, :]
    volume = float(pieces @ sign.ravel())
    dtheta = np.abs(np.arccos(-c) - np.fromiter(map(r.angles.__getitem__, p.edges), float))
    first_order = 0.5 * float((y[:, 1] - y[:, 0]) @ dtheta)
    floor = ORTHOSCHEME_ROUNDING * 2.0 * float(cosh_h.sum())
    return VolumeResult(volume=volume, error_estimate=first_order + floor,
                        nodes=pieces.size, solves=1,
                        newton_iters=r.newton_iters, passes=r.newton_iters)
