"""Hyperbolic volume via Schlaefli's differential formula.

For a one-parameter family of 3-dimensional polyhedra,
-2 dV/dt = sum_e len_e(t) * dtheta_e/dt, so the volume of a target
polyhedron is recovered by integrating along an angle path from a
degenerate (zero volume) configuration.  A path is a table of waypoint
angles, evenly spaced over t in [0, 1] and linear between them; the
volume depends only on the end points, so the spacing is a choice of
parametrization.  ``angle_rows`` is the path's one interpolation: the
angles at one t are its one-row case.  The default path has two
waypoints, the collapse configuration obtained by shrinking every
angle's deviation from pi/2 until an admissibility constraint becomes
an equality, and the target.  ``schlafli_volume`` takes a path, or a
labeling for its default path.

Near the collapse end the integrand grows like sqrt(t); integrating
each path segment [a, b] in u, with t = a + (b - a) u^2, makes it smooth
on all of [0, 1], where Gauss-Legendre rules converge in a few dozen nodes.

Edges whose angle is constant along the path contribute nothing and are
excluded before evaluation; this is what keeps ideal-apex families
integrable (their infinite edges all carry constant right angles).  A
rule's nodes are evaluated together: one stacked Gauss-Newton solve
realizes every node, warm-started from the solutions cached before the
rule, and one batched pass computes only the endpoints of the varying
edges, with the kinds they have at the target; a path that varies an
edge at an ideal vertex raises IdealEdge.  The collapse check at the
start of the path is the one-row case of the same pass.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .andreev import COMPACT, VERTEX, constraints
from .poly_model import AbstractPolyhedron, Edge, LabeledPolyhedron, PolyhedronError
from .realization import (DegenerateVertex, NonConvergence, PathRealizer, RealizationError,
                          RESIDUAL_TOL, _compute_vertices, _expected_vertex_kinds,
                          edge_length, hyperbolic_distance, realize)

DEFAULT_TOL = 1e-8
COLLAPSE_LENGTH_THRESHOLD = 0.05
# path parameter at which the start of the path is checked for collapse
COLLAPSE_CHECK_T = 1e-6
QUAD_START_NODES = 8
QUAD_MAX_NODES = 256


class VolumeError(PolyhedronError):
    pass


class NonCollapsingStart(VolumeError):
    pass


class IdealEdge(VolumeError):
    pass


class PathRealizationFailure(VolumeError):
    def __init__(self, t: float, cause: Exception):
        self.t = t
        super().__init__(f"realization failed at path parameter t={t}: {cause}")


@dataclass(frozen=True, eq=False)
class DeformationPath:
    """Piecewise-linear angle path: ``table`` is a read-only (W, E) array
    of waypoint angles, columns in ``polyhedron.edges`` order, and its W
    waypoints sit evenly spaced at t = 0, 1/(W-1), ..., 1."""

    polyhedron: AbstractPolyhedron
    table: np.ndarray

    def __post_init__(self):
        table = np.array(self.table, dtype=float)
        if table.ndim != 2 or len(table) < 2 or table.shape[1] != len(self.polyhedron.edges):
            raise ValueError("need a table of at least two waypoints, one column per edge")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @staticmethod
    def from_configs(p: AbstractPolyhedron, configs) -> "DeformationPath":
        if any(cfg.keys() != set(p.edges) for cfg in configs):
            raise ValueError("every waypoint must list exactly the polyhedron's edges")
        return DeformationPath(p, [[cfg[e] for e in p.edges] for cfg in configs])

    def angles_at(self, t: float) -> dict[Edge, float]:
        """The angles at ``t``: the one-row case of ``angle_rows``."""
        return dict(zip(self.polyhedron.edges, self.angle_rows([t])[0][0].tolist()))

    def angle_rows(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """The angles and their t-derivatives at each of ``ts``: two
        (len(ts), E) arrays, columns in ``polyhedron.edges`` order.  With
        n = W - 1 segments, t lies on segment k = min(floor(n t), n - 1),
        between waypoints a and b, where an angle is (1 - lam) a + lam b
        with lam = n t - k."""
        n = len(self.table) - 1
        s = np.asarray(ts, dtype=float) * n
        k = np.clip(s.astype(int), 0, n - 1)
        lam = (s - k)[:, None]
        a, b = self.table[k], self.table[k + 1]
        return (1 - lam) * a + lam * b, (b - a) * n

    @functools.cached_property
    def varying_edges(self) -> tuple[Edge, ...]:
        """The edges whose angle leaves its start value at some waypoint."""
        moved = (np.abs(self.table[1:] - self.table[0]) > 1e-15).any(axis=0)
        return tuple(itertools.compress(self.polyhedron.edges, moved))

    @property
    def target_angles(self) -> dict[Edge, float]:
        return dict(zip(self.polyhedron.edges, self.table[-1].tolist()))


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
    takes a whole rule's nodes at once, an array in ascending t, and
    returns its values there.  Returns the finer value and |Q_2n - Q_n|.
    """
    prev = None
    n = QUAD_START_NODES
    while True:
        nodes, weights = _squared_rule(n)
        q = (b - a) * float(weights @ f(a + (b - a) * nodes))
        if prev is not None and (abs(q - prev) <= tol or n >= QUAD_MAX_NODES):
            return q, abs(q - prev)
        prev = q
        n *= 2


# ---------------------------------------------------------------------------
# the Schlaefli integrator


@dataclass(frozen=True)
class VolumeResult:
    volume: float
    error_estimate: float
    nodes: int  # integrand nodes
    doubled: bool = False
    solves: int = 0  # rows solved, anchor and collapse check included
    newton_iters: int = 0  # Gauss-Newton iterations, summed over the rows


def orb_convention(v: VolumeResult) -> VolumeResult:
    """Report twice the true volume (the doubling convention)."""
    if v.doubled:
        return v
    return dataclasses.replace(v, volume=2.0 * v.volume, error_estimate=2.0 * v.error_estimate,
                               doubled=True)


class _Integrand:
    """len-weighted angle-velocity sum along ``path``, with realization cache.

    Only the endpoints of the varying edges are computed, with the kinds
    they have at the target, which must be compact.  On the default path
    a vertex row's slack is linear in t and positive at the start, so
    these vertices are compact at every node.  On an explicit path
    through a waypoint where one is not, its row fails the timelike
    check and the node raises PathRealizationFailure.
    """

    def __init__(self, path: DeformationPath):
        self.path = path
        self.calls = 0
        p = path.polyhedron
        varying = path.varying_edges
        self.kinds = _expected_vertex_kinds(p, path.target_angles)
        for e in varying:
            if any(self.kinds[v] != COMPACT for v in e):
                raise IdealEdge(
                    f"path varies the angle of edge {e}, which has an ideal endpoint")
        self.ends = sorted({v for e in varying for v in e})
        # each varying edge's column in the angle rows and its endpoints' rows in ends
        self.cols = [p.edges.index(e) for e in varying]
        self.tails, self.heads = np.array([[self.ends.index(v) for v in e] for e in varying]).T
        try:
            self.walker = PathRealizer(path)
        except RealizationError as exc:
            raise PathRealizationFailure(PathRealizer.ANCHOR_T, exc)

    def lengths_at(self, ts) -> np.ndarray:
        """The varying edges' lengths at each of ``ts``, one row each: one
        stacked solve for the uncached ts and one vertex pass."""
        p = self.path.polyhedron
        try:
            X = self.walker.solutions_at(ts)
            W = _compute_vertices(p, X.reshape(len(X), len(p.faces), 4), self.ends, self.kinds)
        except NonConvergence as exc:
            raise PathRealizationFailure(exc.t, exc)
        except DegenerateVertex as exc:
            raise PathRealizationFailure(float(ts[exc.row]), exc)
        return hyperbolic_distance(W[:, self.tails], W[:, self.heads])

    def __call__(self, ts) -> np.ndarray:
        self.calls += len(ts)
        lens = self.lengths_at(ts)
        return (lens * self.path.angle_rows(ts)[1][:, self.cols]).sum(axis=1)


def schlafli_volume(target: DeformationPath | LabeledPolyhedron,
                    tol: float = DEFAULT_TOL) -> VolumeResult:
    """Integrate -1/2 sum len_e dtheta_e along the path ``target``; a
    labeling stands for its default path.  Each path segment is
    integrated over its whole length by segment_quadrature, with tol per
    unit of t.

    The error estimate is half the summed |Q_2n - Q_n| of the last two
    rules, plus a realization floor: every length comes from a Newton
    solve stopped at a residual of RESIDUAL_TOL, so both rules carry
    errors of that order, weighted by the total angle travel
    sum_e |dtheta_e| of the path.
    """
    path = target
    if isinstance(target, LabeledPolyhedron):
        path = default_path(target.base, target.angles())
    if not path.varying_edges:
        return VolumeResult(volume=0.0, error_estimate=0.0, nodes=0)

    f = _Integrand(path)
    worst = f.lengths_at([COLLAPSE_CHECK_T]).max()
    if worst > COLLAPSE_LENGTH_THRESHOLD:
        raise NonCollapsingStart(
            f"max varying-edge length {worst:.3g} at t={COLLAPSE_CHECK_T} exceeds "
            f"{COLLAPSE_LENGTH_THRESHOLD}; path start is not degenerate")

    # one rule per waypoint segment, so derivative jumps sit on segment ends
    n = len(path.table) - 1
    ends = [i / n for i in range(n + 1)]
    segments = [segment_quadrature(f, a, b, tol * (b - a)) for a, b in zip(ends, ends[1:])]
    # a plain sum in waypoint-then-edge order, not np.sum's pairwise one
    travel = sum(np.abs(np.diff(path.table, axis=0)).ravel().tolist())
    return VolumeResult(volume=-0.5 * sum(q for q, _ in segments),
                        error_estimate=0.5 * (sum(d for _, d in segments) + RESIDUAL_TOL * travel),
                        nodes=f.calls, solves=f.walker.solves,
                        newton_iters=f.walker.newton_iters)


# ---------------------------------------------------------------------------
# differential self-tests


def monotonicity_probe(lp: LabeledPolyhedron, edge: Edge, delta_angle: float,
                       tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Compare a finite volume difference against the Schlaefli prediction.

    Returns (numeric dV, predicted dV = -len_e/2 * dtheta), len_e read
    from ``realize(lp)``.  Both vanish for a zero perturbation and both
    are negative when the angle grows.
    """
    if delta_angle == 0.0:
        return 0.0, 0.0
    base = schlafli_volume(lp, tol=tol)
    perturbed = lp.angles()
    perturbed[edge] += delta_angle
    v2 = schlafli_volume(default_path(lp.base, perturbed), tol=tol)
    pred = -0.5 * edge_length(realize(lp), edge) * delta_angle
    return v2.volume - base.volume, pred


def hyperbolic_triangle_area(alpha: float, beta: float, gamma: float) -> float:
    """Area of a hyperbolic triangle: the angle defect pi - (a+b+c).

    This is the 2-dimensional face of the Schlaefli relation: along any
    family of triangles, -dA = sum dtheta exactly.
    """
    defect = math.pi - (alpha + beta + gamma)
    if defect < 0:
        raise ValueError("angle sum exceeds pi; not a hyperbolic triangle")
    return defect
