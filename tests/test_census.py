"""Labeling censuses and the pyramid table comparison."""

import hashlib
from itertools import combinations, product

import pytest

from coxvol import andreev
from coxvol.census import (AS_LISTED_CYCLIC, ANY_ARRANGEMENT,
                           CensusBudgetExceeded, PUBLISHED_PYRAMID_ROWS,
                           _pyramid_base_analysis, cube_three_threes,
                           enumerate_labelings, format_pyramid_diff,
                           pyramid_census)
from coxvol.poly_model import LabeledPolyhedron


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


def test_census_rows_are_canonical_and_admissible(cube_all2):
    from coxvol.census import _edge_perms

    rows = enumerate_labelings(cube_all2.base, 3)
    perms = _edge_perms(cube_all2.base)
    edges = cube_all2.base.edges
    for r in rows[:10]:
        assert r.labels == min(tuple(r.labels[i] for i in perm) for perm in perms)
        lp = LabeledPolyhedron(base=cube_all2.base, labels=dict(zip(edges, r.labels)))
        assert andreev.check(lp).realizable


def test_census_budget(cube_all2):
    with pytest.raises(CensusBudgetExceeded):
        enumerate_labelings(cube_all2.base, 6, budget=1000)


def test_lambert_orbit_in_census(cube_all2, lambert_cube):
    from coxvol.census import _edge_perms

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
    assert diff.all_published_rows_admissible
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
    assert relaxed.all_published_rows_admissible


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


def test_pyramid_verdicts_match_check(pyramid):
    # the bundled pyramid's base runs 0-1-2-3 and its apex is vertex 4
    p = pyramid.base
    base = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for seq in product(range(2, 7), repeat=4):
        labels = {e: 2 for e in p.edges}
        labels.update(zip(base, seq))
        report = andreev.check(LabeledPolyhedron(base=p, labels=labels), andreev.ALLOW_IDEAL)
        strict, relaxed, _ = _pyramid_base_analysis(seq)
        assert relaxed == report.realizable, seq
        assert strict == (report.realizable and all(
            report.vertex_types[v] == andreev.COMPACT for v in range(4))), seq
