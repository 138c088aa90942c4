"""Hyperbolic volume via Schlaefli's differential formula.

For a one-parameter family of 3-dimensional polyhedra,
-2 dV/dt = sum_e len_e(t) * dtheta_e/dt, so the volume of a target
polyhedron is recovered by integrating along an angle path from a
degenerate (zero volume) configuration.  The default path interpolates
linearly from the collapse configuration obtained by shrinking every
angle's deviation from pi/2 until an admissibility constraint becomes
an equality.

Near the collapse end the integrand grows like sqrt(t); integrating
each path segment [a, b] in u, with t = a + (b - a) u^2, makes it smooth
on all of [0, 1], where Gauss-Legendre rules converge in a few dozen nodes.

Edges whose angle is constant along the path contribute nothing and are
excluded before evaluation; this is what keeps ideal-apex families
integrable (their infinite edges all carry constant right angles).  At
each node only the endpoints of the varying edges are computed, in one
batched pass with the kinds they have at the target; a path that varies
an edge at an ideal vertex raises IdealEdge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .andreev import COMPACT, VERTEX, constraints
from .poly_model import AbstractPolyhedron, Edge, LabeledPolyhedron, PolyhedronError
from .realization import (PathRealizer, RealizationError, RESIDUAL_TOL,
                          _compute_vertices, _expected_vertex_kinds, edge_length,
                          hyperbolic_distance)

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

    @staticmethod
    def from_configs(p: AbstractPolyhedron, configs, times=None) -> "DeformationPath":
        if times is None:
            times = tuple(i / (len(configs) - 1) for i in range(len(configs)))
        wps = tuple(tuple(sorted(cfg.items())) for cfg in configs)
        return DeformationPath(p, tuple(times), wps)

    def _segment(self, t: float) -> int:
        for i in range(len(self.times) - 1):
            if t < self.times[i + 1]:
                return i
        return len(self.times) - 2

    def angles_at(self, t: float) -> dict[Edge, float]:
        i = self._segment(t)
        t0, t1 = self.times[i], self.times[i + 1]
        lam = (t - t0) / (t1 - t0)
        a = dict(self.waypoints[i])
        b = dict(self.waypoints[i + 1])
        return {e: (1 - lam) * a[e] + lam * b[e] for e in a}

    def derivatives_at(self, t: float) -> dict[Edge, float]:
        i = self._segment(t)
        t0, t1 = self.times[i], self.times[i + 1]
        a = dict(self.waypoints[i])
        b = dict(self.waypoints[i + 1])
        return {e: (b[e] - a[e]) / (t1 - t0) for e in a}

    @property
    def varying_edges(self) -> tuple[Edge, ...]:
        first = dict(self.waypoints[0])
        varying = set()
        for wp in self.waypoints[1:]:
            for e, v in wp:
                if abs(v - first[e]) > 1e-15:
                    varying.add(e)
        return tuple(sorted(varying))

    @property
    def target_angles(self) -> dict[Edge, float]:
        return dict(self.waypoints[-1])


# ---------------------------------------------------------------------------
# default (linear-from-collapse) path construction


def collapse_fraction(p: AbstractPolyhedron, target: dict[Edge, float]) -> float:
    """Largest s in [0, 1) at which scaling every angle's deviation from
    pi/2 by s makes some decisive circuit or face row of the
    admissibility table an equality.

    Vertex rows are skipped: for an admissible target they bind at
    s = 1 at the earliest, and an ideal vertex's row would bind there
    exactly, which rounding can put just below 1.
    """
    dev = {e: target[e] - math.pi / 2 for e in target}
    s0 = 0.0
    for row in constraints(p):
        if row.informational or row.condition == VERTEX:
            continue
        base = len(row.edges) * math.pi / 2
        bound = row.bound * math.pi
        slope = sum(dev[e] for e in row.edges)
        if abs(slope) < 1e-14:
            if abs(base - bound) < 1e-12:
                raise VolumeError(
                    "target sits on an admissibility boundary with no way to move off it")
            continue
        s_eq = (bound - base) / slope
        if 0.0 <= s_eq < 1.0:
            s0 = max(s0, s_eq)
    return s0


def default_path(lp_or_p, target_angles: dict[Edge, float] | None = None) -> DeformationPath:
    """Linear path from the collapse configuration to the target angles."""
    if isinstance(lp_or_p, LabeledPolyhedron):
        p = lp_or_p.base
        target = lp_or_p.angles()
    else:
        p = lp_or_p
        target = dict(target_angles)
    s0 = collapse_fraction(p, target)
    collapse = {e: math.pi / 2 + s0 * (target[e] - math.pi / 2) for e in target}
    return DeformationPath.from_configs(p, [collapse, target])


# ---------------------------------------------------------------------------
# quadrature


@functools.cache
def _squared_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point Gauss-Legendre rule in u on [0, 1], mapped through
    t = u^2: (t nodes ascending, weights w_i * u_i summing to 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    return tuple((u * u).tolist()), tuple((w * u).tolist())


def segment_quadrature(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Integrate f over [a, b] in u, with t = a + (b - a) u^2, which
    absorbs a sqrt(t - a) behaviour at a.

    Gauss-Legendre rules of 8, 16, 32, ... nodes in u, each evaluating f
    in ascending t, run until two successive rules agree within tol or
    QUAD_MAX_NODES is reached.  Returns the finer value and |Q_2n - Q_n|.
    """
    prev = None
    n = QUAD_START_NODES
    while True:
        nodes, weights = _squared_rule(n)
        q = (b - a) * sum(w * f(a + (b - a) * s) for s, w in zip(nodes, weights))
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
    nodes: int
    doubled: bool = False


def orb_convention(v: VolumeResult) -> VolumeResult:
    """Report twice the true volume (the doubling convention)."""
    if v.doubled:
        return v
    return VolumeResult(volume=2.0 * v.volume, error_estimate=2.0 * v.error_estimate,
                        nodes=v.nodes, doubled=True)


class _Integrand:
    """len-weighted angle-velocity sum along the path, with realization cache.

    Only the endpoints of the varying edges are computed, with the kinds
    they have at the target, which must be compact.  On the default path
    a vertex row's slack is linear in t and positive at the start, so
    these vertices are compact at every node.  On an explicit path
    through a waypoint where one is not, its row fails the timelike
    check and the node raises PathRealizationFailure.
    """

    def __init__(self, p: AbstractPolyhedron, path: DeformationPath):
        self.p = p
        self.path = path
        self.calls = 0
        varying = path.varying_edges
        self.kinds = _expected_vertex_kinds(p, path.target_angles)
        for e in varying:
            if any(self.kinds[v] != COMPACT for v in e):
                raise IdealEdge(
                    f"path varies the angle of edge {e}, which has an ideal endpoint")
        self.varying = varying
        self.ends = sorted({v for e in varying for v in e})
        try:
            self.walker = PathRealizer(p, path)
        except RealizationError as exc:
            # the anchor tries each of ANCHOR_TS and reports the last failure
            raise PathRealizationFailure(PathRealizer.ANCHOR_TS[-1], exc)

    def lengths_at(self, t: float) -> dict[Edge, float]:
        try:
            X = self.walker.solution_at(t)
            W = _compute_vertices(self.p, X.reshape(len(self.p.faces), 4),
                                  self.ends, self.kinds)
        except RealizationError as exc:
            raise PathRealizationFailure(t, exc)
        verts = dict(zip(self.ends, W))
        return {e: hyperbolic_distance(verts[e[0]], verts[e[1]]) for e in self.varying}

    def __call__(self, t: float) -> float:
        self.calls += 1
        lens = self.lengths_at(t)
        derivs = self.path.derivatives_at(t)
        return sum(lens[e] * derivs[e] for e in self.varying)


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
        path = default_path(lp_target)
    p = path.polyhedron
    if not path.varying_edges:
        return VolumeResult(volume=0.0, error_estimate=0.0, nodes=0)

    f = _Integrand(p, path)
    worst = max(f.lengths_at(COLLAPSE_CHECK_T).values())
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
                        nodes=f.calls)


# ---------------------------------------------------------------------------
# differential self-tests


def monotonicity_probe(lp: LabeledPolyhedron, edge: Edge, delta_angle: float,
                       tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Compare a finite volume difference against the Schlaefli prediction.

    Returns (numeric dV, predicted dV = -len_e/2 * dtheta).  Both vanish
    for a zero perturbation and both are negative when the angle grows.
    """
    if delta_angle == 0.0:
        return 0.0, 0.0
    base = schlafli_volume(lp, tol=tol)
    perturbed = lp.angles()
    perturbed[edge] += delta_angle
    v2 = schlafli_volume(None, path=default_path(lp.base, perturbed), tol=tol)
    # edge length at the unperturbed target
    r = PathRealizer(lp.base, default_path(lp)).realization_at(1.0)
    pred = -0.5 * edge_length(r, edge) * delta_angle
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
