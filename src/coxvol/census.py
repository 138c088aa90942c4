"""Labeling censuses on a fixed abstract polyhedron.

Covers three searches: the general orbit census of admissible labelings
up to a label bound, the cube-specific placement search for exactly
three 3-labels, and the ideal-apex pyramid table with its comparison
against the published row list.  All three decide admissibility in
one place, ``_screen``, which sums the rows of ``andreev.constraints``
over integer angle units (a common denominator of all 1/n), so every
comparison stays exact; none calls ``andreev.check``.  A screen gathers
the angle units of its rows' edges once and takes each row's sum over
that gather.
The orbit census grows labelings edge by edge, in ``p.edges`` order:
each decisive row is tested on the whole frontier of partial labelings
as soon as its last edge is placed, so a prefix that already fails a
row is never extended.  The growth is orderly (Read 1978; McKay
1998): after each placement a prefix that some automorphism maps to a
lexicographically smaller prefix is dropped too, since neither it nor
any extension is its orbit's smallest member.  Labelings are compared
by their mixed-radix ids, the first edge most significant, and the test
is one float64 matrix product per step over differences of ids.  What
is left once every edge is placed is the smallest member of each orbit,
once, in ascending order.  One pass over all the orbit rows then
counts each row's ideal vertices: every vertex row of an admissible
labeling sums to at least its bound, and the ideal ones sum to it
exactly.  The group enters as one (|G|, E) array of
edge permutations, ``_edge_perms``, read by the orbit test and the cube
placement search alike.  The pyramid table screens the base rows of the
bundled pyramid once, over every base sequence, apex edges at 2, and
puts sequences in dihedral canonical form as one array operation.
The census is exact combinatorics and imports neither ``realization``
nor ``volume``: a row's volume is its caller's (``coxvol census
--volumes``).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, groupby, permutations

import numpy as np

from . import andreev as _andreev
from . import corpus
from .circuits import enumerate_circuits
from .haken import classify
from .poly_model import AbstractPolyhedron, Edge, automorphisms, canonical_cycle, edge_key, validate

# the largest label space (max_label - 1)^E a census may explore, checked
# before any work; the growth allocates only its surviving prefixes.  Every
# id is below it, and so below 2^53: float64 holds the differences of
# prefix ids that the orbit test sums exactly
CANDIDATE_BUDGET = 4_000_000


class CensusBudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class CensusRow:
    labels: tuple[int, ...]  # aligned with p.edges order, orbit-canonical
    outcome: str
    vertex_summary: dict[str, int]
    haken: str


def _edge_perms(p: AbstractPolyhedron) -> np.ndarray:
    """The automorphism group as a (|G|, E) array over ``p.edges``: row g
    sends edge i to edge perms[g, i], in ``automorphisms`` order."""
    verts = p.vertices
    maps = np.searchsorted(verts, automorphisms(p))
    a, b = np.searchsorted(verts, p.edges).T
    index = np.full((len(verts), len(verts)), -1)
    index[a, b] = index[b, a] = np.arange(len(a))
    return index[maps[:, a], maps[:, b]]


def _units(rows, max_label: int) -> tuple[int, np.ndarray]:
    """U = lcm(2..max_label) and the angle pi/n of each label n in units
    of pi/U, by digit; ValueError when a row's sum, at most len·U/2,
    could overflow int64."""
    U = math.lcm(*range(2, max_label + 1))
    if max((len(r.edges) for r in rows), default=0) * U // 2 > np.iinfo(np.int64).max:
        raise ValueError(f"max_label {max_label} is too large for exact int64 angle sums")
    return U, np.array([U // n for n in range(2, max_label + 1)], dtype=np.int64)


# array entries that a pass over many labelings forms at once, block by
# block, so its memory does not grow with their number: a screen's gather
# of angle units, the orbit test's x @ D
_BLOCK = 2**16


def _row_sums(rows, digits: np.ndarray, col: dict[Edge, int],
              unit: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """The angle sums of ``rows`` over an (N, ·) array of digits, in
    units of pi/U, in blocks of labelings: pairs (at, sums), sums the
    (len(rows), ·) sums of the labelings digits[at].  Each block gathers
    the angle units of every row's edge columns (``col[e]``) once, one
    line per edge, and each run of consecutive rows with as many edges
    sums its lines at once."""
    cols = [col[e] for row in rows for e in row.edges]
    if not cols:
        return
    runs = [(width, len(list(run))) for width, run in groupby(len(row.edges) for row in rows)]
    block = max(1, _BLOCK // len(cols))
    for first in range(0, len(digits), block):
        angles = unit[digits[first:first + block].T[cols]]
        n, sums, start = angles.shape[1], [], 0
        for width, k in runs:
            sums.append(angles[start:start + k * width].reshape(k, width, n).sum(axis=1))
            start += k * width
        yield slice(first, first + n), np.concatenate(sums)


def _screen(rows, digits: np.ndarray, col: dict[Edge, int], units: tuple[int, np.ndarray],
            allow_ideal: bool) -> np.ndarray:
    """A mask over the labelings of an (N, ·) array of digits (label - 2):
    whether each satisfies every decisive constraint in ``rows``, judged
    on the angle sums of ``_row_sums``, exact in units of pi/U, with
    ``units`` = (U, unit) as ``_units`` gives them once per census."""
    rows = [row for row in rows if not row.informational]
    ok = np.ones(len(digits), dtype=bool)
    for at, sums in _row_sums(rows, digits, col, units[1]):
        part = ok[at]
        for row, s in zip(rows, sums):
            part &= row.holds(s, allow_ideal, units[0])
    return ok


def _admissible_mask(p: AbstractPolyhedron, labels: np.ndarray, max_label: int,
                     regime: str) -> np.ndarray:
    """Exact vectorized admissibility over an (N, E) label array, in
    ``p.edges`` column order: every decisive row of the constraint table
    must hold, and below MIN_FACES faces every labeling is rejected, as
    ``check`` does."""
    allow_ideal = _andreev.allows_ideal(regime)
    col = {e: i for i, e in enumerate(p.edges)}
    rows = _andreev.constraints(p)
    ok = _screen(rows, labels - 2, col, _units(rows, max_label), allow_ideal)
    return ok & (len(p.faces) >= _andreev.MIN_FACES)


def _prefix_tests(p: AbstractPolyhedron, nchoices: int) -> list[np.ndarray]:
    """For each prefix length k = 1..E, a (k, ·) float64 matrix D with one
    column per automorphism g that can move a k-edge prefix x: x @ D is
    negative in g's column exactly when x^g[:j] < x[:j], where
    x^g[i] = x[perm[i]] and j is the longest run of leading positions i
    with perm[i] < k.  Each column holds mixed-radix weights (first edge
    most significant), so x @ D is a difference of ids, exact in float64
    below CANDIDATE_BUDGET."""
    perms = _edge_perms(p)
    G, E = perms.shape
    weights = float(nchoices) ** np.arange(E - 1, -1, -1)
    # (k - 1, g, i) with i inside g's leading run of the first k edges
    k, g, i = np.nonzero(np.cumprod(perms < np.arange(1, E + 1)[:, None, None], axis=2))
    D = np.zeros((E, E, G))
    D[k, perms[g, i], g] = weights[i]
    D[k, i, g] -= weights[i]
    return [Dn[:n, Dn.any(axis=0)] for n, Dn in enumerate(D, 1)]


def _grow(p: AbstractPolyhedron, units: tuple[int, np.ndarray], allow_ideal: bool) -> np.ndarray:
    """The smallest member of every automorphism orbit of admissible
    labelings, as an (N, E) int8 array of digits (label - 2) in
    ``p.edges`` order, ascending, grown one edge at a time over the
    digits of ``units`` (``_units`` of the table at the label bound).

    After each placement the frontier keeps only the prefixes that pass
    the rows whose last edge was just placed, and then only those that no
    automorphism maps to a lexicographically smaller prefix
    (``_prefix_tests``): neither such a prefix nor any extension of it
    is its orbit's minimum.  Admissibility is invariant under the group,
    so an orbit minimum is never dropped; once every edge is placed the
    test is the full one, and what is left is the orbit minima, once
    each.  The frontier grows in lexicographic order, so they come out
    sorted.  Memory follows the surviving prefixes, never the
    (max_label - 1)^E product.
    """
    col = {e: i for i, e in enumerate(p.edges)}
    due: list[list[_andreev.Constraint]] = [[] for _ in p.edges]
    for row in _andreev.constraints(p):
        due[max(col[e] for e in row.edges)].append(row)
    choices = np.arange(len(units[1]), dtype=np.int8)
    tests = _prefix_tests(p, len(choices))
    # one empty prefix to grow from, none below MIN_FACES faces
    digits = np.zeros((int(len(p.faces) >= _andreev.MIN_FACES), 0), dtype=np.int8)
    for step, (rows, D) in enumerate(zip(due, tests)):
        grown = np.empty((len(digits), len(choices), step + 1), dtype=np.int8)
        grown[:, :, :step] = digits[:, None]
        grown[:, :, step] = choices
        grown = grown.reshape(-1, step + 1)
        digits = grown[_screen(rows, grown, col, units, allow_ideal)]
        minimal = np.ones(len(digits), dtype=bool)
        block = max(1, _BLOCK // max(1, D.shape[1]))
        for start in range(0, len(digits), block):
            minimal[start:start + block] = (digits[start:start + block] @ D >= 0).all(axis=1)
        digits = digits[minimal]
    return digits


def _ideal_counts(p: AbstractPolyhedron, digits: np.ndarray,
                  units: tuple[int, np.ndarray]) -> np.ndarray:
    """The number of ideal vertices of each labeling in an (N, E) array of
    admissible digits in ``p.edges`` order.  Every vertex row of an
    admissible labeling sums to at least its bound, so the count is the
    number of vertex rows whose sum (``_row_sums``) equals it."""
    U, unit = units
    rows = [row for row in _andreev.constraints(p) if row.condition == _andreev.VERTEX]
    bounds = np.array([[row.bound * U] for row in rows])
    ideal = np.zeros(len(digits), dtype=np.int64)
    for at, sums in _row_sums(rows, digits, {e: i for i, e in enumerate(p.edges)}, unit):
        ideal[at] = (sums == bounds).sum(axis=0)
    return ideal


def enumerate_labelings(p: AbstractPolyhedron, max_label: int,
                        regime: str = _andreev.STRICT_COMPACT) -> list[CensusRow]:
    """One census row per automorphism orbit of admissible labelings,
    each the lexicographically smallest member of its orbit, in
    ascending order, as ``_grow`` leaves them.

    The rows' ideal vertex counts come from one pass over all of them
    (``_ideal_counts``); the outcome and vertex summary of each distinct
    count are formed once, and every row gets its own copy of the
    summary.
    """
    if max_label < 2:
        raise ValueError("max_label must be >= 2")
    allow_ideal = _andreev.allows_ideal(regime)
    if not validate(p).passed:
        raise ValueError("polyhedron fails validation")
    total = (max_label - 1) ** len(p.edges)
    if total > CANDIDATE_BUDGET:
        raise CensusBudgetExceeded(
            f"{total} candidate labelings exceed the budget of {CANDIDATE_BUDGET}")
    units = _units(_andreev.constraints(p), max_label)
    digits = _grow(p, units, allow_ideal)

    ideal = _ideal_counts(p, digits, units).tolist()
    kinds = {}
    for n in set(ideal):
        counts = ((_andreev.COMPACT, len(p.vertices) - n), (_andreev.IDEAL, n))
        kinds[n] = _andreev.admissible_outcome(n > 0), {k: c for k, c in counts if c}
    haken = classify(p).verdict
    rows: list[CensusRow] = []
    for labs, n in zip(zip(*(digits + 2).T.tolist()), ideal):
        outcome, summary = kinds[n]
        rows.append(CensusRow(labs, outcome, summary.copy(), haken))
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
    # one screen over all placements: row i puts the 3s on triple i
    triples = np.array(list(combinations(range(len(edges)), 3)))
    labels = np.full((len(triples), len(edges)), 2, dtype=np.int64)
    labels[np.arange(len(triples))[:, None], triples] = 3
    ok = _admissible_mask(cube, labels, 3, _andreev.STRICT_COMPACT)
    # whether two edges share a vertex, and which edges each prismatic
    # 4-circuit (band) crosses
    ends = np.array(edges)
    touch = (ends[:, None, :, None] == ends[None, :, None, :]).any(axis=(2, 3))
    bands = np.array([[e in c.crossed_edges for e in edges]
                      for c in enumerate_circuits(cube, 4) if c.prismatic],
                     dtype=bool).reshape(-1, len(edges))
    apart = ~touch[triples[:, [0, 0, 1]], triples[:, [1, 2, 2]]].any(axis=1)
    one_each = (bands[:, triples].sum(axis=2) == 1).all(axis=0)

    def placements(rows):
        return tuple(tuple(edges[i] for i in t) for t in rows)

    perms = _edge_perms(cube)
    remaining = set(map(tuple, triples[ok & apart].tolist()))
    orbits: list[tuple[tuple[Edge, ...], ...]] = []
    while remaining:
        orbit = set(map(tuple, np.sort(perms[:, list(min(remaining))], axis=1).tolist()))
        orbits.append(placements(sorted(orbit)))
        remaining -= orbit
    stab = len(perms) // len(orbits[0]) if orbits else 0
    return ThreeThreesReport(
        total_candidates=len(triples),
        andreev_passing=placements(triples[ok].tolist()),
        selected=placements(triples[ok & apart].tolist()),
        orbits=tuple(orbits),
        stabilizer_order=stab,
        one_per_circuit=placements(triples[apart & one_each].tolist()))


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


def _canonical_cycles(rows: np.ndarray) -> np.ndarray:
    """``canonical_cycle`` of every row of an (N, n) array at once: the
    lexicographically smallest of its n rotations and n reflections."""
    n = rows.shape[1]
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n
    forms = rows[:, np.concatenate([shifts, shifts[:, ::-1]])].reshape(-1, n)
    # sorted by row, then by the form's entries, first most significant
    row = np.repeat(np.arange(len(rows)), 2 * n)
    return forms[np.lexsort([*forms.T[::-1], row])[::2 * n]]


@functools.cache
def _pyramid() -> tuple[AbstractPolyhedron, tuple[Edge, ...], tuple]:
    """The bundled square pyramid as a base sequence sees it: the
    polyhedron, its base edges in cyclic order, and the constraint rows
    holding base edges, each with the sequence positions (i, j) of those
    two edges, in report order.

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
    return p, base, tuple(rows)


def _pyramid_screen(seqs: np.ndarray, units: tuple[int, np.ndarray],
                    allow_ideal: bool) -> np.ndarray:
    """Whether each base sequence of an (N, 4) label array passes every
    base row of the bundled pyramid, its apex edges at 2; ``units`` are
    ``_units`` of the base rows at a bound no smaller than any label."""
    p, base, rows = _pyramid()
    col = {e: i for i, e in enumerate(p.edges)}
    digits = np.zeros((len(seqs), len(p.edges)), dtype=np.int8)
    digits[:, [col[e] for e in base]] = seqs - 2
    return _screen([row for row, _ in rows], digits, col, units, allow_ideal)


def _pyramid_reasons(seq: tuple[int, int, int, int]) -> Iterator[str]:
    """The exact finding of each base row on one base sequence, its sum
    taken in integer units of pi/U, U = lcm(2, *seq), as ``_screen``
    sums; every edge off the base is at 2."""
    U = math.lcm(2, *seq)
    for row, (i, j) in _pyramid()[2]:
        a, b = seq[i], seq[j]
        units = U // a + U // b + (len(row.edges) - 2) * (U // 2)
        g = math.gcd(units, U)  # the sum as Fraction(units, U) prints it
        s = f"{units // g}" if g == U else f"{units // g}/{U // g}"
        if row.condition == _andreev.VERTEX:
            kind = _andreev.vertex_kind(units, row.bound * U)
            yield f"base vertex between labels {a},{b}: sum {s}*pi -> {kind}"
        elif units < row.bound * U:
            yield f"quad-face pair ({a},{b}): {s}*pi < {row.bound}*pi ok"
        else:
            yield f"quad-face pair ({a},{b}): {s}*pi not < {row.bound}*pi -> rejected"


def pyramid_census(max_label: int,
                   convention: str = AS_LISTED_CYCLIC,
                   regime: str = _andreev.ALLOW_IDEAL) -> PyramidTableDiff:
    """Compare the enumerated admissible pyramid labelings with the
    published row list under the chosen reading of the table."""
    if max_label < 3:
        raise ValueError("max_label must be >= 3")
    if convention not in (AS_LISTED_CYCLIC, ANY_ARRANGEMENT):
        raise ValueError(f"unknown convention {convention!r}")
    allow_ideal = _andreev.allows_ideal(regime)

    # a published row is read as listed, or passes if some cyclic order
    # of its labels does; one screen judges those and every sequence
    listed = np.array(PUBLISHED_PYRAMID_ROWS)
    if convention == AS_LISTED_CYCLIC:
        arrangements = [[row] for row in PUBLISHED_PYRAMID_ROWS]
    else:
        forms = _canonical_cycles(listed[:, list(permutations(range(4)))].reshape(-1, 4))
        arrangements = [sorted(set(map(tuple, arr)))
                        for arr in forms.reshape(len(listed), -1, 4).tolist()]
    seqs = [a for arr in arrangements for a in arr]
    # one U for the published labels and the grid; raises before the
    # grid is built
    units = _units([row for row, _ in _pyramid()[2]], max(max_label, int(listed.max())))
    grid = np.indices((max_label - 1,) * 4, dtype=np.int8).reshape(4, -1).T + 2
    ok = _pyramid_screen(np.concatenate([np.array(seqs, dtype=np.int8), grid]), units,
                         allow_ideal)
    verdict = dict(zip(seqs, ok.tolist()))

    published = []
    for row, arr in zip(PUBLISHED_PYRAMID_ROWS, arrangements):
        reasons = (_pyramid_reasons(row) if convention == AS_LISTED_CYCLIC else
                   (f"arrangement {a}: {'admissible' if verdict[a] else 'rejected'}; "
                    + "; ".join(_pyramid_reasons(a)) for a in arr))
        published.append(PyramidRowResult(row=row, admissible=any(verdict[a] for a in arr),
                                          reasons=tuple(reasons)))

    # our full enumeration, canonicalized per the convention
    canon = (_canonical_cycles if convention == AS_LISTED_CYCLIC
             else functools.partial(np.sort, axis=1))
    ours = set(map(tuple, canon(grid[ok[len(seqs):]]).tolist()))
    extras = tuple(sorted(ours - set(map(tuple, canon(listed).tolist()))))
    return PyramidTableDiff(convention=convention, regime=regime,
                            published_rows=tuple(published), extra_rows=extras)


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
