"""The five admissibility conditions for non-obtuse edge labelings.

Conditions 2-5 are linear inequalities on the angles pi/n of sets of
edges, and which edges and bounds depend only on the combinatorics.
``constraints(p)`` compiles them once per polyhedron into one table;
each row holds its edges, a bound in units of pi, its condition and a
witness.  Its readers:

- ``check`` sums each row exactly in integer units of pi/U, U the lcm
  of the labels on the table's rows (alpha = pi/n is U/n units), so
  compact/ideal boundaries are decided by integer comparisons against
  bound*U without any floating point; only the sums of the witnesses
  it reports become Fractions (in units of pi).  It shares no code
  with the census's screens and is the independent oracle for the CLI
  and the tests;
- the census decides admissibility, vertex kinds included, from integer
  angles in units of pi/U, U a common denominator of all 1/n, and
  never calls ``check``;
- the volume integrator compares float angle sums with bound*pi, for
  its collapse path and for the target's ideal vertices; the
  realization reads a vertex's kind from the realized vertex instead.

Condition 1 (positive angles) holds for every label n >= 2 and has no
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .circuits import enumerate_circuits
from .poly_model import AbstractPolyhedron, Edge, LabeledPolyhedron, edge_key

STRICT_COMPACT = "strict-compact"
ALLOW_IDEAL = "allow-ideal"
REGIMES = (STRICT_COMPACT, ALLOW_IDEAL)

COMPACT = "compact"
IDEAL = "ideal"
INADMISSIBLE = "inadmissible"

FACE_COUNT_TOO_SMALL = "FaceCountTooSmall"
MIN_FACES = 5  # fewer faces are rejected outright (FaceCountTooSmall)

VERTEX = 2  # the condition number of vertex rows


@dataclass(frozen=True)
class Constraint:
    """One row of the admissibility table: the angle sum over ``edges``,
    in units of pi, against ``bound``.

    A vertex row (condition 2) needs the sum above the bound, and
    equality makes the vertex ideal.  Circuit rows (3 and 4) and
    quadrilateral-face rows (5) need it strictly below.  ``witness`` is
    the vertex id, the Circuit, or (face id, branch).  An informational
    row is reported but never rejects.
    """

    condition: int
    edges: tuple[Edge, ...]
    bound: int
    witness: object
    informational: bool = False

    def angle_sum(self, labels: dict[Edge, int]) -> Fraction:
        """Exact sum of the row's angles in units of pi."""
        ns = [labels[e] for e in self.edges]
        unit = math.lcm(*ns)
        return Fraction(sum(unit // n for n in ns), unit)

    def holds(self, s, allow_ideal: bool, unit: int = 1):
        """Whether angle sum ``s``, in units of pi/unit, satisfies the row;
        ``s`` may be a number or a numpy array."""
        bound = self.bound * unit
        if self.condition != VERTEX:
            return s < bound
        return s >= bound if allow_ideal else s > bound


def constraints(p: AbstractPolyhedron) -> tuple[Constraint, ...]:
    """The admissibility table of ``p``, compiled on first use and kept
    on ``p`` (which is immutable).

    Rows run by condition: vertices by id; prismatic 3-circuits, then
    4-circuits, in enumeration order; then both branches of each
    quadrilateral face whose vertices are all trivalent.  Condition 5 is
    only decisive on five-faced polyhedra; with more faces its rows are
    informational.
    """
    table = vars(p).get("_constraints")
    if table is None:
        table = vars(p)["_constraints"] = _compile(p)
    return table


def _compile(p: AbstractPolyhedron) -> tuple[Constraint, ...]:
    rows = []
    for v in p.vertices:
        d = p.valence(v)
        if d not in (3, 4):
            raise ValueError(f"vertex {v} has valence {d}, expected 3 or 4")
        if d == 4 and v not in p.ideal_candidates:
            raise ValueError(f"vertex {v} is 4-valent but not an ideal candidate")
        rows.append(Constraint(VERTEX, p.vertex_edges[v], d - 2, v))
    for k in (3, 4):
        rows += [Constraint(k, c.crossed_edges, k - 2, c)
                 for c in enumerate_circuits(p, k) if c.prismatic]
    # each branch is a pair of opposite face edges (alpha1+alpha3, then
    # alpha2+alpha4) plus the four edges entering the face's vertices
    informational = len(p.faces) > 5
    for fid, cyc in enumerate(p.faces):
        if len(cyc) != 4 or any(p.valence(v) != 3 for v in cyc):
            continue
        boundary = [edge_key(cyc[i], cyc[(i + 1) % 4]) for i in range(4)]
        entering = tuple(next(e for e in p.vertex_edges[v] if e not in boundary)
                         for v in cyc)
        for branch in (0, 1):
            rows.append(Constraint(5, (boundary[branch], boundary[branch + 2]) + entering,
                                   3, (fid, branch), informational))
    return tuple(rows)


def default_regime(p: AbstractPolyhedron) -> str:
    """Ideal vertices are allowed exactly when the polyhedron declares
    ideal candidates."""
    return ALLOW_IDEAL if p.ideal_candidates else STRICT_COMPACT


def allows_ideal(regime: str) -> bool:
    """Whether ``regime`` admits ideal vertices; ValueError if unknown."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    return regime == ALLOW_IDEAL


def admissible_outcome(any_ideal: bool) -> str:
    """The outcome of a labeling that passes every decisive row."""
    return "realizable-with-ideal-vertices" if any_ideal else "realizable-compact"


def vertex_kind(s: Fraction | int, bound: int) -> str:
    """Compact above the bound, ideal at exact equality, inadmissible
    below; ``s`` and ``bound`` in one unit, pi or pi/U."""
    if s > bound:
        return COMPACT
    if s == bound:
        return IDEAL
    return INADMISSIBLE


@dataclass(frozen=True)
class ConditionResult:
    condition: int
    passed: bool
    informational: bool
    witnesses: tuple  # (object, Fraction angle sum in units of pi) pairs
    note: str = ""


@dataclass(frozen=True)
class AndreevReport:
    outcome: str  # realizable-compact | realizable-with-ideal-vertices | rejected
    regime: str
    conditions: tuple[ConditionResult, ...]
    vertex_types: dict[int, str]
    reason: str = ""

    @property
    def realizable(self) -> bool:
        return self.outcome != "rejected"


def check(lp: LabeledPolyhedron, regime: str = STRICT_COMPACT) -> AndreevReport:
    """Evaluate the five admissibility conditions.

    Condition 5 (quadrilateral faces) is only decisive for five-faced
    polyhedra; with more faces it is still evaluated but reported as
    informational and never causes rejection.  Fewer than five faces is
    an immediate rejection (FaceCountTooSmall).
    """
    allow_ideal = allows_ideal(regime)
    p = lp.base
    rows = constraints(p)
    # each row's angle sum in units of pi/U, U the lcm of the labels on
    # the table's rows (the vertex rows hold every edge)
    ns = list(map(lp.labels.__getitem__, p.edges))
    U = math.lcm(*set(ns))
    units = dict(zip(p.edges, map(U.__floordiv__, ns)))
    sums = [sum(map(units.__getitem__, row.edges)) for row in rows]
    vertices = [(row.witness, s) for row, s in zip(rows, sums) if row.condition == VERTEX]
    vtypes = {row.witness: vertex_kind(s, row.bound * U)
              for row, s in zip(rows, sums) if row.condition == VERTEX}
    if len(p.faces) < MIN_FACES:
        return AndreevReport(
            outcome="rejected", regime=regime, conditions=(),
            vertex_types=vtypes, reason=FACE_COUNT_TOO_SMALL)

    # 1: all angles positive -- automatic for integer labels >= 2.
    conditions = [ConditionResult(1, True, False, (),
                                  note="automatic: labels >= 2 give 0 < angle <= pi/2")]
    # 2: inadmissible vertices, then (strict regime) ideal ones; the
    # witnesses' sums become Fractions in units of pi.
    fails = [w for w in vertices if vtypes[w[0]] == INADMISSIBLE]
    if not allow_ideal:
        fails += [w for w in vertices if vtypes[w[0]] == IDEAL]
    conditions.append(ConditionResult(2, not fails, False,
                                      tuple((v, Fraction(s, U)) for v, s in fails)))
    # 3, 4: prismatic circuits; 5: quadrilateral faces, witnessed by
    # (face id, branch, sum).
    for cond in (3, 4, 5):
        cond_rows = [(row, s) for row, s in zip(rows, sums) if row.condition == cond]
        fails = [(*row.witness, Fraction(s, U)) if cond == 5 else (row.witness, Fraction(s, U))
                 for row, s in cond_rows if not s < row.bound * U]
        note = f"vacuous: no prismatic {cond}-circuits" if cond < 5 and not cond_rows else ""
        conditions.append(ConditionResult(cond, not fails, cond == 5 and len(p.faces) > 5,
                                          tuple(fails), note=note))

    failed = [c.condition for c in conditions if not c.passed and not c.informational]
    outcome = "rejected" if failed else admissible_outcome(IDEAL in vtypes.values())
    return AndreevReport(outcome=outcome, regime=regime,
                         conditions=tuple(conditions), vertex_types=vtypes,
                         reason=f"condition {failed[0]}" if failed else "")
