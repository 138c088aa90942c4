"""Labeling censuses on a fixed abstract polyhedron.

Covers three searches: the general orbit census of admissible labelings
up to a label bound, the cube-specific placement search for exactly
three 3-labels, and the ideal-apex pyramid table with its comparison
against the published row list.  All three read the admissibility
constraint table of ``andreev.constraints``.  The orbit census screens
candidates vectorized, summing each table row over integer angle units
(a common denominator of all 1/n), so every comparison stays exact.
Its rows are canonical by construction: candidate i spells i in mixed
radix, so an orbit's lexicographically smallest member has the smallest
id, one vectorized minimum over the group, and the sorted ids list the
orbits in order.  Only these are re-checked with the exact checker.
The pyramid table evaluates the rows of the bundled pyramid with its
apex edges at 2 and its base edges labeled from each sequence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from . import andreev as _andreev
from . import corpus
from . import volume as _volume
from .circuits import enumerate_circuits
from .haken import classify
from .poly_model import (AbstractPolyhedron, Edge, LabeledPolyhedron,
                         apply_automorphism_to_edges, automorphisms, canonical_cycle,
                         edge_key, validate)
from .realization import RealizationError

CANDIDATE_BUDGET = 4_000_000  # the most candidate labelings a census screens


class CensusBudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class CensusRow:
    labels: tuple[int, ...]  # aligned with p.edges order, orbit-canonical
    outcome: str
    vertex_summary: dict[str, int]
    haken: str
    volume: float | None = None
    volume_error: tuple[str, str] | None = None  # (error type, message) when the volume failed


def _edge_perms(p: AbstractPolyhedron) -> list[tuple[int, ...]]:
    """Automorphism group as permutations of the sorted edge list."""
    edges = p.edges
    idx = {e: i for i, e in enumerate(edges)}
    perms = []
    for vmap in automorphisms(p):
        emap = apply_automorphism_to_edges(p, vmap)
        perms.append(tuple(idx[emap[e]] for e in edges))
    return perms


def _admissible_mask(p: AbstractPolyhedron, labels: np.ndarray, max_label: int,
                     regime: str) -> np.ndarray:
    """Exact vectorized admissibility over an (N, E) label array: each
    decisive row of the constraint table sums its columns of angles in
    units of pi/U, and below MIN_FACES faces every labeling is rejected,
    as ``check`` does."""
    U = math.lcm(*range(2, max_label + 1))
    unit = np.array([0, 0] + [U // n for n in range(2, max_label + 1)], dtype=np.int64)
    eidx = {e: i for i, e in enumerate(p.edges)}
    allow_ideal = regime == _andreev.ALLOW_IDEAL
    ok = np.full(len(labels), len(p.faces) >= _andreev.MIN_FACES)
    for row in _andreev.constraints(p):
        if not row.informational:
            s = sum(unit[labels[:, eidx[e]]] for e in row.edges)
            ok &= row.holds(s, allow_ideal, U)
    return ok


def enumerate_labelings(p: AbstractPolyhedron, max_label: int,
                        regime: str = _andreev.STRICT_COMPACT,
                        with_volumes: bool = False) -> list[CensusRow]:
    """One census row per automorphism orbit of admissible labelings,
    each the lexicographically smallest member of its orbit, in
    ascending order.

    With volumes, a row whose volume raises a VolumeError or
    RealizationError keeps ``volume=None`` and records the error's type
    and message in ``volume_error``; the other rows are unaffected.
    """
    if max_label < 2:
        raise ValueError("max_label must be >= 2")
    if not validate(p).passed:
        raise ValueError("polyhedron fails validation")
    E = len(p.edges)
    nchoices = max_label - 1
    total = nchoices ** E
    if total > CANDIDATE_BUDGET:
        raise CensusBudgetExceeded(
            f"{total} candidate labelings exceed the budget of {CANDIDATE_BUDGET}")
    # Row i spells i in mixed radix, the first edge most significant, so
    # a row's id is (row - 2) @ weights and ids order rows lexicographically.
    weights = nchoices ** np.arange(E - 1, -1, -1, dtype=np.int64)
    labels = np.arange(total, dtype=np.int64)[:, None] // weights
    np.remainder(labels, nchoices, out=labels)
    labels += 2
    digits = labels[_admissible_mask(p, labels, max_label, regime)] - 2

    # orbit representative: the smallest id over the group; relabeling a
    # row by perm moves its column j to position perm^-1(j)
    canon = np.full(len(digits), total, dtype=np.int64)
    for perm in _edge_perms(p):
        np.minimum(canon, digits @ weights[np.argsort(perm)], out=canon)

    haken = classify(p)
    rows: list[CensusRow] = []
    for labs in map(tuple, labels[np.unique(canon)].tolist()):
        lp = LabeledPolyhedron(base=p, labels=dict(zip(p.edges, labs)))
        rep = _andreev.check(lp, regime)
        assert rep.realizable, "vectorized screen disagrees with exact checker"
        summary: dict[str, int] = {}
        for t in rep.vertex_types.values():
            summary[t] = summary.get(t, 0) + 1
        vol = err = None
        if with_volumes:
            try:
                vol = _volume.schlafli_volume(lp).volume
            except (_volume.VolumeError, RealizationError) as exc:
                err = (type(exc).__name__, str(exc))
        rows.append(CensusRow(labels=labs, outcome=rep.outcome,
                              vertex_summary=summary, haken=haken.verdict,
                              volume=vol, volume_error=err))
    return rows


# ---------------------------------------------------------------------------
# cube: all placements of exactly three 3-labels


@dataclass(frozen=True)
class ThreeThreesReport:
    total_candidates: int
    andreev_passing: tuple[tuple[Edge, ...], ...]  # admissible placements
    selected: tuple[tuple[Edge, ...], ...]  # admissible and pairwise non-adjacent
    orbits: tuple[tuple[tuple[Edge, ...], ...], ...]  # orbits of the selected set
    stabilizer_order: int
    one_per_circuit: tuple[tuple[Edge, ...], ...]  # non-adjacent, one 3 per band


def cube_three_threes(cube: AbstractPolyhedron) -> ThreeThreesReport:
    """Examine all C(E,3) placements of exactly three 3-labels on the cube.

    Admissibility alone does not force the 3s apart: a placement with
    two adjacent 3s still satisfies every vertex and circuit condition
    (it just realizes a different, larger-volume cube).  The interesting
    set is the admissible placements with pairwise non-adjacent 3s;
    those are returned as ``selected`` together with their orbit
    structure, and cross-checked against the independent description
    "non-adjacent with exactly one 3 on each prismatic 4-circuit".
    """
    edges = cube.edges
    quad_circuits = [c for c in enumerate_circuits(cube, 4) if c.prismatic]

    def adjacent(e1: Edge, e2: Edge) -> bool:
        return bool(set(e1) & set(e2))

    passing: list[tuple[Edge, ...]] = []
    for triple in combinations(edges, 3):
        labels = {e: 2 for e in edges}
        for e in triple:
            labels[e] = 3
        lp = LabeledPolyhedron(base=cube, labels=labels)
        if _andreev.check(lp, _andreev.STRICT_COMPACT).realizable:
            passing.append(triple)
    selected = tuple(t for t in passing
                     if all(not adjacent(a, b) for a, b in combinations(t, 2)))
    one_per = tuple(
        t for t in combinations(edges, 3)
        if all(not adjacent(a, b) for a, b in combinations(t, 2))
        and all(sum(1 for e in t if e in c.crossed_edges) == 1 for c in quad_circuits))

    group = [apply_automorphism_to_edges(cube, m) for m in automorphisms(cube)]
    remaining = set(selected)
    orbits: list[tuple[tuple[Edge, ...], ...]] = []
    while remaining:
        rep = min(remaining)
        orbit = {tuple(sorted(g[e] for e in rep)) for g in group}
        orbits.append(tuple(sorted(orbit)))
        remaining -= orbit
    stab = len(group) // len(orbits[0]) if orbits else 0
    return ThreeThreesReport(
        total_candidates=math.comb(len(edges), 3),
        andreev_passing=tuple(sorted(passing)),
        selected=selected,
        orbits=tuple(orbits),
        stabilizer_order=stab,
        one_per_circuit=one_per)


# ---------------------------------------------------------------------------
# pyramid table


AS_LISTED_CYCLIC = "as-listed-cyclic"
ANY_ARRANGEMENT = "any-arrangement"

# Published base-edge rows (e1..e4); tuples expand the parenthesized choices.
PUBLISHED_PYRAMID_ROWS: tuple[tuple[int, int, int, int], ...] = tuple(
    sorted({
        *((2, 2, 3, m) for m in (3, 4, 5, 6)),
        (2, 2, 4, 4),
        *((2, 3, w, 3) for w in (3, 4, 5)),
        *((3, w, 3, 3) for w in (3, 4, 5)),
        *((3, w, 3, w2) for w in (3, 4, 5) for w2 in (3, 4, 5)),
    })
)


@dataclass(frozen=True)
class PyramidRowResult:
    row: tuple[int, int, int, int]
    admissible: bool
    reasons: tuple[str, ...]  # per-vertex / per-condition exact findings


@dataclass(frozen=True)
class PyramidTableDiff:
    convention: str
    regime: str
    published_rows: tuple[PyramidRowResult, ...]
    extra_rows: tuple[tuple[int, int, int, int], ...]  # admissible, not listed

    @property
    def all_published_rows_admissible(self) -> bool:
        return all(r.admissible for r in self.published_rows)


@functools.cache
def _pyramid() -> tuple[tuple[Edge, ...], dict[Edge, int], tuple]:
    """The bundled square pyramid as a base sequence sees it: its base
    edges in cyclic order, its apex edges at label 2, and the constraint
    rows holding base edges, each with the sequence positions (i, j) of
    those two edges, in report order.

    The apex row holds apex edges only; at label 2 they make the apex
    ideal by construction, so it is left out.
    """
    p = corpus.load("pyramid").base
    cyc = canonical_cycle(next(f for f in p.faces if p.ideal_candidates.isdisjoint(f)))
    base = tuple(edge_key(cyc[i], cyc[(i + 1) % 4]) for i in range(4))
    rows = []
    for row in _andreev.constraints(p):
        at = sorted(base.index(e) for e in row.edges if e in base)
        if at:
            i, j = (3, 0) if at == [0, 3] else at  # (3, 0): the vertex closing the cycle
            rows.append((row, (i, j)))
    rows.sort(key=lambda r: (r[0].condition, r[1][0]))
    return base, {e: 2 for e in p.edges if e not in base}, tuple(rows)


def _pyramid_base_analysis(seq: tuple[int, int, int, int]) -> tuple[bool, bool, list[str]]:
    """Exact admissibility of one cyclic base-label sequence.

    Returns (strictly compact, admissible with ideal base vertices,
    reasons), from the constraint table of the bundled pyramid with the
    apex edges at 2 and the base edges labeled from ``seq``.
    """
    base, labels, rows = _pyramid()
    labels = {**labels, **dict(zip(base, seq))}
    reasons: list[str] = []
    strict = relaxed = True
    for row, (i, j) in rows:
        a, b = seq[i], seq[j]
        s = row.angle_sum(labels)
        if row.condition == _andreev.VERTEX:
            kind = _andreev.vertex_kind(s, row.bound)
            strict &= kind == _andreev.COMPACT
            relaxed &= kind != _andreev.INADMISSIBLE
            reasons.append(f"base vertex between labels {a},{b}: sum {s}*pi -> {kind}")
        elif s < row.bound:
            reasons.append(f"quad-face pair ({a},{b}): {s}*pi < {row.bound}*pi ok")
        else:
            reasons.append(f"quad-face pair ({a},{b}): {s}*pi not < {row.bound}*pi -> rejected")
            strict = relaxed = False
    return strict, relaxed, reasons


def pyramid_census(max_label: int,
                   convention: str = AS_LISTED_CYCLIC,
                   regime: str = _andreev.ALLOW_IDEAL) -> PyramidTableDiff:
    """Compare the enumerated admissible pyramid labelings with the
    published row list under the chosen reading of the table."""
    if max_label < 3:
        raise ValueError("max_label must be >= 3")
    if convention not in (AS_LISTED_CYCLIC, ANY_ARRANGEMENT):
        raise ValueError(f"unknown convention {convention!r}")
    strict_regime = regime == _andreev.STRICT_COMPACT

    def verdict(seq) -> tuple[bool, list[str]]:
        strict, relaxed, reasons = _pyramid_base_analysis(seq)
        return (strict if strict_regime else relaxed), reasons

    def admissible(row) -> tuple[bool, tuple[str, ...]]:
        if convention == AS_LISTED_CYCLIC:
            ok, reasons = verdict(row)
            return ok, tuple(reasons)
        # any-arrangement: the multiset passes if some cyclic order does
        good = False
        reasons = []
        for a in sorted({canonical_cycle(perm) for perm in permutations(row)}):
            ok, rs = verdict(a)
            good |= ok
            reasons.append(f"arrangement {a}: {'admissible' if ok else 'rejected'}; "
                           + "; ".join(rs))
        return good, tuple(reasons)

    published = tuple(
        PyramidRowResult(row=row, admissible=adm, reasons=rs)
        for row in PUBLISHED_PYRAMID_ROWS
        for adm, rs in [admissible(row)]
    )

    # our full enumeration, canonicalized per the convention
    canon = canonical_cycle if convention == AS_LISTED_CYCLIC else lambda r: tuple(sorted(r))
    listed = {canon(r.row) for r in published}
    ours = {canon(seq) for seq in product(range(2, max_label + 1), repeat=4)
            if verdict(seq)[0]}
    extras = tuple(sorted(o for o in ours if o not in listed))
    return PyramidTableDiff(convention=convention, regime=regime,
                            published_rows=published, extra_rows=extras)


def format_pyramid_diff(diff: PyramidTableDiff) -> str:
    lines = [
        f"pyramid table diff (convention={diff.convention}, regime={diff.regime})",
        f"published rows admissible: "
        f"{sum(r.admissible for r in diff.published_rows)}/{len(diff.published_rows)}",
    ]
    for r in diff.published_rows:
        status = "MATCH" if r.admissible else "MISSING"
        lines.append(f"  {status} {r.row}")
        for reason in r.reasons:
            lines.append(f"      {reason}")
    if diff.extra_rows:
        lines.append(f"extra admissible rows not in the table: {len(diff.extra_rows)}")
        for row in diff.extra_rows:
            lines.append(f"  EXTRA {row}")
    else:
        lines.append("no extra admissible rows")
    return "\n".join(lines)
