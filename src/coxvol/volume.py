"""Hyperbolic volume via Schlaefli's differential formula.

For a one-parameter family of 3-dimensional polyhedra,
-2 dV/dt = sum_e len_e(t) * dtheta_e/dt, and the integral of the right
side along an angle path depends only on its two ends (Milnor).  A path
is one straight segment, from start angles to end angles over t in
[0, 1], and ``schlafli_volume`` of it is V(end) - V(start); a detour is
a chain of segments, and its integral the sum of theirs.
``angle_rows`` is the segment's one interpolation, the angles at one t
its one-row case; their t-derivative is the constant row end - start.
A labeling's volume is the integral along its default path, from the
collapse configuration obtained by shrinking every angle's deviation
from pi/2 until an admissibility constraint becomes an equality, where
the volume is zero, to its angles.

Near the collapse end the integrand grows like sqrt(t); integrating in
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
vertex ideal at the target raises IdealEdge.  The check that a
labeling's default path starts collapsed is the one-row case of the
same pass, run first and alone: near the collapse end Newton converges
only linearly, and every row of a stack would wait for it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .andreev import VERTEX, constraints
from .poly_model import AbstractPolyhedron, Edge, LabeledPolyhedron, PolyhedronError
from .realization import (NonConvergence, PathRealizer, RealizationError, RESIDUAL_TOL,
                          _system)

DEFAULT_TOL = 1e-8
COLLAPSE_LENGTH_THRESHOLD = 0.05
# path parameter at which the start of the path is checked for collapse
COLLAPSE_CHECK_T = 1e-6
QUAD_START_NODES = 8
QUAD_MAX_NODES = 256
# margin for a vertex row's float angle slack, in radians, at the target
_SLACK_TOL = 1e-9


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
    volume: float
    error_estimate: float
    nodes: int  # integrand nodes
    solves: int = 0  # rows solved, anchor and (for a labeling) collapse check included
    newton_iters: int = 0  # Gauss-Newton iterations, summed over the rows
    passes: int = 0  # stacked Gauss-Newton passes: each stack's largest row count, summed


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
    """Integrate -1/2 sum len_e dtheta_e along the path ``target``, over
    its whole length by segment_quadrature: V(end) - V(start).  A
    labeling stands for its default path, whose start is checked to be
    collapsed, so the integral is its volume.

    The error estimate is half |Q_2n - Q_n| of the last two rules, plus
    a realization floor: every length comes from a Newton solve stopped
    at a residual of RESIDUAL_TOL, so both rules carry errors of that
    order, weighted by the total angle travel sum_e |dtheta_e| of the path.
    A tol that is not positive, NaN included, raises ValueError.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    path = target
    if isinstance(target, LabeledPolyhedron):
        path = default_path(target.base, target.angles())
    if not path.varying_edges:
        return VolumeResult(volume=0.0, error_estimate=0.0, nodes=0)

    f = _Integrand(path)
    # checked numerically: a row at its bound does not always collapse the
    # polyhedron (a prismatic 4-circuit can pinch instead)
    if isinstance(target, LabeledPolyhedron):
        worst = f.lengths_at([COLLAPSE_CHECK_T]).max()
        if worst > COLLAPSE_LENGTH_THRESHOLD:
            raise NonCollapsingStart(
                f"max varying-edge length {worst:.3g} at t={COLLAPSE_CHECK_T} exceeds "
                f"{COLLAPSE_LENGTH_THRESHOLD}; path start is not degenerate")

    q, d = segment_quadrature(f, 0.0, 1.0, tol)
    # a plain sum in edge order, not np.sum's pairwise one
    travel = sum(np.abs(path.table[1] - path.table[0]).tolist())
    return VolumeResult(volume=-0.5 * q, error_estimate=0.5 * (d + RESIDUAL_TOL * travel),
                        nodes=f.calls, solves=f.walker.solves,
                        newton_iters=f.walker.newton_iters, passes=f.walker.passes)
