"""Labeling censuses and the pyramid table comparison."""

import functools
import hashlib
import random
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvol import andreev, census
from coxvol.census import (AS_LISTED_CYCLIC, ANY_ARRANGEMENT,
                           CensusBudgetExceeded, PUBLISHED_PYRAMID_ROWS,
                           _admissible_mask, _edge_perms, _pyramid_screen,
                           cube_three_threes, enumerate_labelings,
                           format_pyramid_diff, pyramid_census)
from coxvol.corpus import load
from coxvol.poly_model import (AbstractPolyhedron, LabeledPolyhedron, automorphisms,
                               canonical_cycle, edge_key)


def test_cube_census_small(cube_all2):
    rows = enumerate_labelings(cube_all2.base, 3)
    assert len(rows) == 34
    canon = {r.labels for r in rows}
    # all-2 is inadmissible, so it must be absent
    assert tuple([2] * 12) not in canon
    for r in rows:
        assert r.outcome == "realizable-compact"
        assert r.haken == "Large"
        assert r.vertex_summary == {"compact": 8}


def test_census_imports_nothing_from_the_numeric_layers(imported_modules):
    # the census is exact integer combinatorics; volumes are the CLI's
    imported = imported_modules(census)
    assert "coxvol.andreev" in imported
    assert not [m for m in imported if m.split(".")[:2] in (["coxvol", "volume"],
                                                             ["coxvol", "realization"])]


def test_census_rows_own_their_vertex_summaries(cube_all2):
    # rows with the same ideal count share no summary dict: writing to
    # one row's summary leaves every other row's as the census gave it
    rows = enumerate_labelings(cube_all2.base, 3, andreev.ALLOW_IDEAL)
    before = [dict(r.vertex_summary) for r in rows]
    assert len({tuple(sorted(s.items())) for s in before}) > 1
    for i in range(len(rows)):
        rows[i].vertex_summary[andreev.IDEAL] = -1
        assert [r.vertex_summary for r in rows[:i] + rows[i + 1:]] == before[:i] + before[i + 1:]
        rows[i].vertex_summary.clear()
        rows[i].vertex_summary.update(before[i])


def test_census_rows_are_canonical_and_admissible(cube_all2):
    rows = enumerate_labelings(cube_all2.base, 3)
    perms = _edge_perms(cube_all2.base)
    edges = cube_all2.base.edges
    for r in rows:
        assert r.labels == min(tuple(r.labels[i] for i in perm) for perm in perms)
        lp = LabeledPolyhedron(base=cube_all2.base, labels=dict(zip(edges, r.labels)))
        assert andreev.check(lp).realizable


@functools.cache
def admissible_by_brute_force(name, max_label, regime):
    """Every admissible labeling of a corpus polyhedron, in its
    ``p.edges`` order, screened over the whole label product."""
    p = load(name).base
    E = len(p.edges)
    candidates = np.indices((max_label - 1,) * E, dtype=np.int8).reshape(E, -1).T + 2
    return candidates[_admissible_mask(p, candidates, max_label, regime)]


@pytest.mark.parametrize("name, max_label, regime", [
    ("cube_all2", 3, andreev.STRICT_COMPACT),
    ("cube_all2", 3, andreev.ALLOW_IDEAL),
    ("triangular_prism", 4, andreev.STRICT_COMPACT),
    ("pyramid", 4, andreev.ALLOW_IDEAL),  # five faces: condition-5 rows decide
    ("triangular_prism", 5, andreev.STRICT_COMPACT),
    ("tetrahedron", 3, andreev.STRICT_COMPACT),  # below MIN_FACES: empty
])
def test_census_orbits_match_brute_force(name, max_label, regime):
    # oracle: screen every candidate, then take each survivor's tuple
    # minimum over the group one row at a time
    p = load(name).base
    admissible = admissible_by_brute_force(name, max_label, regime)
    perms = _edge_perms(p)
    expected = sorted({min(tuple(row[i] for i in perm) for perm in perms)
                       for row in map(tuple, admissible.tolist())})
    rows = enumerate_labelings(p, max_label, regime)
    assert [r.labels for r in rows] == expected
    # Burnside: the orbit count is the mean number of admissible
    # labelings each automorphism fixes, x[perm] == x
    fixed = sum(int((admissible[:, list(perm)] == admissible).all(axis=1).sum()) for perm in perms)
    assert len(rows) * len(perms) == fixed
    # each row's outcome and vertex summary are the exact checker's
    for r in rows:
        report = andreev.check(LabeledPolyhedron(base=p, labels=dict(zip(p.edges, r.labels))),
                               regime)
        assert r.outcome == report.outcome
        assert r.vertex_summary == dict(Counter(report.vertex_types.values()))


def test_census_never_calls_the_exact_checker(monkeypatch, cube_all2):
    def refuse(*args, **kwargs):
        raise AssertionError("andreev.check called from the census")

    monkeypatch.setattr(andreev, "check", refuse)
    assert len(enumerate_labelings(cube_all2.base, 3, andreev.ALLOW_IDEAL)) == 111
    assert len(cube_three_threes(cube_all2.base).selected) == 8
    for convention in (AS_LISTED_CYCLIC, ANY_ARRANGEMENT):
        assert all(r.admissible for r in pyramid_census(6, convention).published_rows)
    assert ".check(" not in Path(census.__file__).read_text()


def test_census_calls_automorphisms_once_through_its_own_binding(monkeypatch, cube_all2):
    # the benchmark's tracer counts automorphisms by wrapping
    # census.automorphisms: one call per cube census, one per three-threes
    calls = []

    def counting(p):
        calls.append(p)
        return automorphisms(p)

    monkeypatch.setattr(census, "automorphisms", counting)
    assert len(enumerate_labelings(cube_all2.base, 3)) == 34
    assert calls == [cube_all2.base]
    assert len(cube_three_threes(cube_all2.base).selected) == 8
    assert calls == [cube_all2.base] * 2


@pytest.mark.parametrize("call", [
    lambda: enumerate_labelings(load("cube_all2").base, 3, "bogus"),
    lambda: enumerate_labelings(load("tetrahedron").base, 3, "bogus"),
    lambda: pyramid_census(6, regime="bogus"),
], ids=["cube", "tetrahedron", "pyramid"])
def test_census_rejects_unknown_regime(call):
    with pytest.raises(ValueError, match="unknown regime"):
        call()


def test_screen_refuses_angle_sums_past_int64(lambert_cube):
    # lcm(2..42)·2 (a 4-circuit row) fits in int64; lcm(2..43) alone
    # does not, and the sums would wrap
    p = lambert_cube.base
    labels = np.array([[lambert_cube.labels[e] for e in p.edges]])
    assert _admissible_mask(p, labels, 42, andreev.STRICT_COMPACT).tolist() == [True]
    with pytest.raises(ValueError, match="int64"):
        _admissible_mask(p, labels, 43, andreev.STRICT_COMPACT)
    with pytest.raises(ValueError, match="int64"):
        pyramid_census(43)


def test_census_memory_follows_the_frontier(cube_all2):
    # the full candidate array of 3^12 int64 rows alone is 51 MB
    enumerate_labelings(cube_all2.base, 4)
    tracemalloc.start()
    try:
        enumerate_labelings(cube_all2.base, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def relabeled(p, image, order, turns):
    """``p`` with vertex v renamed image[v], its faces in ``order`` and
    face f's cycle rotated by turns[f]."""
    faces = []
    for fid in order:
        f, r = p.faces[fid], turns[fid]
        faces.append(tuple(image[v] for v in f[r:] + f[:r]))
    return AbstractPolyhedron(
        name=p.name, faces=tuple(faces),
        outer_face=None if p.outer_face is None else order.index(p.outer_face),
        ideal_candidates=frozenset(image[v] for v in p.ideal_candidates))


def test_census_is_independent_of_vertex_and_face_order(cube_all2):
    # vertex ids permuted, faces shuffled and each cycle rotated: p.edges,
    # the order the growth places and compares edges in, changes; the
    # orbits stay the same
    p = cube_all2.base
    rng = random.Random(3)
    image = dict(zip(p.vertices, rng.sample(p.vertices, len(p.vertices))))
    turns = [rng.randrange(len(f)) for f in p.faces]
    order = list(range(len(p.faces)))
    rng.shuffle(order)
    moved = relabeled(p, image, order, turns)

    def kinds(rows):
        return Counter((r.outcome, tuple(sorted(r.vertex_summary.items()))) for r in rows)

    rows = enumerate_labelings(moved, 4)
    assert len(rows) == 436
    assert kinds(rows) == kinds(enumerate_labelings(p, 4))


def test_census_budget(cube_all2):
    # 5^12 candidates, far above the budget; raised before any allocation
    with pytest.raises(CensusBudgetExceeded):
        enumerate_labelings(cube_all2.base, 6)


def test_candidate_budget_keeps_float64_ids_exact():
    # the prefix orbit test takes differences of ids in float64; every
    # id is below the budget
    assert census.CANDIDATE_BUDGET < 2**53


def test_growth_keeps_only_orbit_minima(monkeypatch, cube_all2):
    # the orbit test on every prefix leaves 4,896 rows to screen on cube
    # max-label 4 strict, where the growth that kept every admissible
    # labeling screened 80,316
    screened = []
    screen = census._screen

    def counting(rows, digits, *args):
        screened.append(len(digits))
        return screen(rows, digits, *args)

    monkeypatch.setattr(census, "_screen", counting)
    p = cube_all2.base
    units = census._units(andreev.constraints(p), 4)
    labelings = list(map(tuple, census._grow(p, units, False).tolist()))
    assert sum(screened) == 4896
    assert len(labelings) == 436
    assert labelings == sorted(set(labelings))
    perms = _edge_perms(p)
    for x in labelings:
        assert x == min(tuple(x[i] for i in perm) for perm in perms)


def orbit_minima_by_canonicalization(p, labels, max_label):
    """Oracle: the post-hoc pass the census ran before its growth tested
    prefixes.  Each admissible labeling's id in mixed radix, first edge
    most significant, is minimized over the group through the permuted
    weights ``weights[argsort(perm)]``; np.unique lists the orbits."""
    r, E = max_label - 1, len(p.edges)
    weights = r ** np.arange(E - 1, -1, -1, dtype=np.int64)
    W = np.array([weights[np.argsort(perm)] for perm in _edge_perms(p)], dtype=np.float64)
    ids = ((labels - 2).astype(np.float64) @ W.T).min(axis=1)
    return list(map(tuple, (np.unique(ids).astype(np.int64)[:, None] // weights % r + 2).tolist()))


@pytest.mark.parametrize("regime", andreev.REGIMES)
@pytest.mark.parametrize("name", ["cube_all2", "triangular_prism", "pyramid"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_census_matches_the_canonicalization_oracle(name, regime, data):
    # every distinct corpus type above MIN_FACES (lambert_cube is the cube;
    # the tetrahedron's censuses are all empty), relabeled, at every
    # max-label the budget admits: max-label 2 has radix 1
    base = load(name).base
    image = dict(zip(base.vertices, data.draw(st.permutations(base.vertices))))
    p = relabeled(base, image, data.draw(st.permutations(range(len(base.faces)))),
                  [data.draw(st.integers(0, len(f) - 1)) for f in base.faces])
    col = {e: i for i, e in enumerate(p.edges)}
    moved = [col[edge_key(image[a], image[b])] for a, b in base.edges]
    max_label = 2
    while (max_label - 1) ** len(p.edges) <= census.CANDIDATE_BUDGET:
        admissible = admissible_by_brute_force(name, max_label, regime)
        labels = np.empty_like(admissible)
        labels[:, moved] = admissible
        assert ([r.labels for r in enumerate_labelings(p, max_label, regime)]
                == orbit_minima_by_canonicalization(p, labels, max_label)), max_label
        max_label += 1


def test_lambert_orbit_in_census(cube_all2, lambert_cube):
    perms = _edge_perms(cube_all2.base)
    edges = cube_all2.base.edges
    target = tuple(lambert_cube.labels[e] for e in edges)
    canon = min(tuple(target[i] for i in perm) for perm in perms)
    rows = enumerate_labelings(cube_all2.base, 3)
    assert canon in {r.labels for r in rows}


def test_three_threes_counts(cube_all2):
    rep = cube_three_threes(cube_all2.base)
    assert rep.total_candidates == 220
    # admissibility alone leaves every one-per-band placement except the
    # eight whose three 3s meet at a vertex (that vertex becomes ideal)
    assert len(rep.andreev_passing) == 56
    assert len(rep.selected) == 8
    assert len(rep.orbits) == 1
    assert rep.stabilizer_order == 6
    assert set(rep.one_per_circuit) == set(rep.selected)


def test_three_threes_selected_are_nonadjacent(cube_all2):
    rep = cube_three_threes(cube_all2.base)
    for triple in rep.selected:
        for a, b in combinations(triple, 2):
            assert not set(a) & set(b)
    # and some admissible placements are adjacent (strictly larger set)
    adjacent = [t for t in rep.andreev_passing
                if any(set(a) & set(b) for a, b in combinations(t, 2))]
    assert len(adjacent) == 48


def test_three_threes_volumes_agree(cube_all2):
    from coxvol.volume import schlafli_volume

    rep = cube_three_threes(cube_all2.base)
    vols = []
    for triple in (rep.selected[0], rep.selected[-1]):
        labels = {e: 2 for e in cube_all2.base.edges}
        for e in triple:
            labels[e] = 3
        lp = LabeledPolyhedron(base=cube_all2.base, labels=labels)
        vols.append(schlafli_volume(lp, tol=1e-8).volume)
    assert vols[0] == pytest.approx(vols[1], abs=1e-6)


def test_pyramid_table_listed_ideal():
    diff = pyramid_census(6, convention=AS_LISTED_CYCLIC,
                          regime=andreev.ALLOW_IDEAL)
    assert all(r.admissible for r in diff.published_rows)
    assert len(diff.published_rows) == len(PUBLISHED_PYRAMID_ROWS)


def test_pyramid_table_strict_discrepancies():
    diff = pyramid_census(6, convention=AS_LISTED_CYCLIC,
                          regime=andreev.STRICT_COMPACT)
    missing = {r.row for r in diff.published_rows if not r.admissible}
    assert (2, 2, 3, 6) in missing  # base vertex between 3 and 6 is ideal
    assert (2, 2, 4, 4) in missing  # adjacent 4s give an ideal base vertex
    for r in diff.published_rows:
        if r.row == (2, 2, 3, 6):
            assert any("ideal" in reason for reason in r.reasons)


def test_pyramid_table_any_arrangement_strict():
    diff = pyramid_census(6, convention=ANY_ARRANGEMENT,
                          regime=andreev.STRICT_COMPACT)
    by_row = {r.row: r for r in diff.published_rows}
    # (2,2,4,4) fails every arrangement: adjacent 4s make an ideal base
    # vertex, and alternating puts the two 2s opposite, where the face
    # sum reaches 3*pi exactly
    row = by_row[(2, 2, 4, 4)]
    assert not row.admissible
    assert any("ideal" in reason for reason in row.reasons)
    assert any("not < 3*pi" in reason for reason in row.reasons)
    # (2,2,3,6) contains an ideal vertex or worse in every arrangement
    assert not by_row[(2, 2, 3, 6)].admissible
    # under the ideal-friendly regime both rows come back
    relaxed = pyramid_census(6, convention=ANY_ARRANGEMENT,
                             regime=andreev.ALLOW_IDEAL)
    assert all(r.admissible for r in relaxed.published_rows)


def test_pyramid_table_deterministic():
    a = format_pyramid_diff(pyramid_census(6))
    b = format_pyramid_diff(pyramid_census(6))
    assert a == b
    assert "MATCH" in a


def test_pyramid_reasons_are_exact():
    diff = pyramid_census(6)
    for r in diff.published_rows:
        assert len(r.reasons) >= 4
        for reason in r.reasons:
            assert "pi" in reason


def pyramid_reasons_by_fractions(seq):
    """Oracle: each base row's finding from ``Constraint.angle_sum``, the
    exact Fraction sum over the row's labels."""
    p, base, rows = census._pyramid()
    labels = {e: 2 for e in p.edges} | dict(zip(base, seq))
    for row, (i, j) in rows:
        a, b = seq[i], seq[j]
        s = row.angle_sum(labels)
        if row.condition == andreev.VERTEX:
            kind = andreev.vertex_kind(s, row.bound)
            yield f"base vertex between labels {a},{b}: sum {s}*pi -> {kind}"
        elif s < row.bound:
            yield f"quad-face pair ({a},{b}): {s}*pi < {row.bound}*pi ok"
        else:
            yield f"quad-face pair ({a},{b}): {s}*pi not < {row.bound}*pi -> rejected"


def test_pyramid_reasons_match_fraction_sums():
    # byte for byte, on every arrangement of every published row's labels
    seqs = {seq for row in PUBLISHED_PYRAMID_ROWS for seq in permutations(row)}
    for seq in sorted(seqs):
        assert list(census._pyramid_reasons(seq)) == list(pyramid_reasons_by_fractions(seq)), seq


# sha256 of format_pyramid_diff at max_label 6, recorded when the reason
# lines were still written out by hand for the pyramid
PYRAMID_TEXT_SHA256 = {
    (AS_LISTED_CYCLIC, andreev.STRICT_COMPACT):
        "e0d477ef346cf48b2a04d48592c68721b2887a2efc1f76e4e054cc24b7ebd9be",
    (AS_LISTED_CYCLIC, andreev.ALLOW_IDEAL):
        "e762bce97432ca206e4c2c94f9d467ee34384138201c7ad5112fed53cce67b61",
    (ANY_ARRANGEMENT, andreev.STRICT_COMPACT):
        "1715cfe75949b35bcdf8afddde4fddc015238cfbb94fbc5d0e7644b03924b6b1",
    (ANY_ARRANGEMENT, andreev.ALLOW_IDEAL):
        "afdbd4b9cf1ee359e0407bf80f07b04f0907085c9f6fb3b5214b7f3adcac6d78",
}


@pytest.mark.parametrize("convention, regime", sorted(PYRAMID_TEXT_SHA256))
def test_pyramid_table_text_pinned(convention, regime):
    text = format_pyramid_diff(pyramid_census(6, convention=convention, regime=regime))
    assert hashlib.sha256(text.encode()).hexdigest() == PYRAMID_TEXT_SHA256[convention, regime]


def test_canonical_cycles_match_canonical_cycle():
    # row by row: the full max-label 6 pyramid grid, then random rows of
    # other lengths over three labels, where forms tie often
    grid = np.indices((5,) * 4, dtype=np.int8).reshape(4, -1).T + 2
    rng = np.random.default_rng(0)
    for rows in (grid, *(rng.integers(2, 5, size=(300, n)) for n in (1, 2, 3, 5, 6))):
        assert (census._canonical_cycles(rows).tolist()
                == [list(canonical_cycle(row)) for row in rows.tolist()])
    assert census._canonical_cycles(grid[:0]).shape == (0, 4)


def test_pyramid_verdicts_match_check(pyramid):
    # the bundled pyramid's base runs 0-1-2-3 and its apex is vertex 4;
    # strict asks for every base vertex compact, the apex staying ideal
    p = pyramid.base
    base = [(0, 1), (1, 2), (2, 3), (0, 3)]
    seqs = np.array(list(product(range(2, 7), repeat=4)))
    units = census._units([row for row, _ in census._pyramid()[2]], 6)
    strict = _pyramid_screen(seqs, units, allow_ideal=False)
    relaxed = _pyramid_screen(seqs, units, allow_ideal=True)
    assert len(seqs) == 625
    for seq, s, r in zip(map(tuple, seqs.tolist()), strict, relaxed):
        labels = {e: 2 for e in p.edges}
        labels.update(zip(base, seq))
        report = andreev.check(LabeledPolyhedron(base=p, labels=labels), andreev.ALLOW_IDEAL)
        assert r == report.realizable, seq
        assert s == (report.realizable and all(
            report.vertex_types[v] == andreev.COMPACT for v in range(4))), seq


@pytest.mark.parametrize("convention", [AS_LISTED_CYCLIC, ANY_ARRANGEMENT])
@pytest.mark.parametrize("regime", andreev.REGIMES)
def test_pyramid_verdicts_agree_with_reasons(convention, regime):
    # a sequence passes exactly when none of its reasons rejects it, nor,
    # under the strict regime, finds an ideal base vertex
    def clean(reasons):
        bad = ["rejected", "inadmissible"] + (["-> ideal"] if regime == andreev.STRICT_COMPACT
                                               else [])
        return not any(word in reason for reason in reasons for word in bad)

    for r in pyramid_census(6, convention, regime).published_rows:
        if convention == AS_LISTED_CYCLIC:
            assert r.admissible == clean(r.reasons), r.row
            continue
        verdicts = []
        for reason in r.reasons:
            head, *found = reason.split("; ")
            verdicts.append(head.endswith(": admissible"))
            assert verdicts[-1] == clean(found), reason
        assert r.admissible == any(verdicts), r.row
