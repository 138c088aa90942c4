"""Hyperbolic volume via Schlaefli's differential formula.

For a one-parameter family of 3-dimensional polyhedra,
-2 dV/dt = sum_e len_e(t) * dtheta_e/dt, so the volume of a target
polyhedron is recovered by integrating along an angle path from a
degenerate (zero volume) configuration.  A path is piecewise linear
through waypoints at strictly increasing times, and ``angle_rows`` is
its one interpolation: the angles at one t are its one-row case.  The
default path interpolates linearly from the collapse configuration
obtained by shrinking every angle's deviation from pi/2 until an
admissibility constraint becomes an equality.

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


@dataclass(frozen=True)
class DeformationPath:
    """Piecewise-linear angle path through waypoint configurations."""

    polyhedron: AbstractPolyhedron
    times: tuple[float, ...]
    waypoints: tuple[tuple[tuple[Edge, float], ...], ...]

    def __post_init__(self):
        if len(self.times) != len(self.waypoints) or len(self.times) < 2:
            raise ValueError("need as many times as waypoints, at least two")
        if self.times[0] != 0.0 or self.times[-1] != 1.0:
            raise ValueError("path must run over t in [0, 1]")
        if any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("path times must be strictly increasing")
        if any(tuple(e for e, _ in wp) != self.polyhedron.edges for wp in self.waypoints):
            raise ValueError("every waypoint must list exactly the polyhedron's edges, in order")

    @staticmethod
    def from_configs(p: AbstractPolyhedron, configs, times=None) -> "DeformationPath":
        if times is None:
            times = tuple(i / (len(configs) - 1) for i in range(len(configs)))
        wps = tuple(tuple(sorted(cfg.items())) for cfg in configs)
        return DeformationPath(p, tuple(times), wps)

    def angles_at(self, t: float) -> dict[Edge, float]:
        """The angles at ``t``: the one-row case of ``angle_rows``."""
        return dict(zip(self.polyhedron.edges, self.angle_rows([t])[0][0].tolist()))

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """The waypoint angles, one row per waypoint, columns in
        ``polyhedron.edges`` order."""
        return np.array([[a[e] for e in self.polyhedron.edges] for a in map(dict, self.waypoints)])

    def angle_rows(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """The angles and their t-derivatives at each of ``ts``: two
        (len(ts), E) arrays, columns in ``polyhedron.edges`` order.  On
        the segment [t0, t1] between waypoints a and b an angle is
        (1 - lam) a + lam b with lam = (t - t0) / (t1 - t0)."""
        ts = np.asarray(ts, dtype=float)
        times = np.array(self.times)
        i = np.searchsorted(times[1:-1], ts, side="right")
        t0, t1 = times[i, None], times[i + 1, None]
        a, b = self._table[i], self._table[i + 1]
        lam = (ts[:, None] - t0) / (t1 - t0)
        return (1 - lam) * a + lam * b, (b - a) / (t1 - t0)

    @functools.cached_property
    def varying_edges(self) -> tuple[Edge, ...]:
        """The edges whose angle leaves its start value at some waypoint."""
        moved = (np.abs(self._table[1:] - self._table[0]) > 1e-15).any(axis=0)
        return tuple(itertools.compress(self.polyhedron.edges, moved))

    @property
    def target_angles(self) -> dict[Edge, float]:
        return dict(self.waypoints[-1])


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
    collapse = {e: math.pi / 2 + s0 * (target[e] - math.pi / 2) for e in target}
    return DeformationPath.from_configs(p, [collapse, target])


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


def schlafli_volume(lp_target: LabeledPolyhedron | None,
                    path: DeformationPath | None = None,
                    tol: float = DEFAULT_TOL) -> VolumeResult:
    """Integrate -1/2 sum len_e dtheta_e along the path.

    Either a labeled target (default path built automatically) or an
    explicit path must be given.  Each path segment is integrated over
    its whole length by segment_quadrature, with tol per unit of t.

    The error estimate is half the summed |Q_2n - Q_n| of the last two
    rules, plus a realization floor: every length comes from a Newton
    solve stopped at a residual of RESIDUAL_TOL, so both rules carry
    errors of that order, weighted by the total angle travel
    sum_e |dtheta_e| of the path.
    """
    if path is None:
        if lp_target is None:
            raise ValueError("need a target labeling or an explicit path")
        path = default_path(lp_target.base, lp_target.angles())
    if not path.varying_edges:
        return VolumeResult(volume=0.0, error_estimate=0.0, nodes=0)

    f = _Integrand(path)
    worst = f.lengths_at([COLLAPSE_CHECK_T]).max()
    if worst > COLLAPSE_LENGTH_THRESHOLD:
        raise NonCollapsingStart(
            f"max varying-edge length {worst:.3g} at t={COLLAPSE_CHECK_T} exceeds "
            f"{COLLAPSE_LENGTH_THRESHOLD}; path start is not degenerate")

    # one rule per waypoint segment, so derivative jumps sit on segment ends
    segments = [segment_quadrature(f, a, b, tol * (b - a))
                for a, b in zip(path.times, path.times[1:])]
    travel = sum(abs(y - x) for wa, wb in zip(path.waypoints, path.waypoints[1:])
                 for (_, x), (_, y) in zip(wa, wb))
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
    v2 = schlafli_volume(None, path=default_path(lp.base, perturbed), tol=tol)
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
