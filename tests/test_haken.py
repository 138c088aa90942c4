"""Large/small classification and curve compressions."""

import pytest

from coxvol.circuits import circuits_up_to, enumerate_circuits
from coxvol.corpus import load
from coxvol.haken import (base_form, classify, find_compressions,
                          is_compressible, orbifolds_of)


def equatorial_band(p):
    quads = [c for c in enumerate_circuits(p, 4) if c.prismatic]
    return quads[0]


def test_cube_band_has_no_compressions(cube_all2):
    p = cube_all2.base
    c = equatorial_band(p)
    for orb in orbifolds_of(p, c):
        assert base_form(p, orb) is None
        assert find_compressions(p, orb) == []
        assert not is_compressible(p, orb)


def test_cube_vertex_link_is_compressible(cube_all2):
    p = cube_all2.base
    for c in enumerate_circuits(p, 3):
        for orb in orbifolds_of(p, c):
            assert base_form(p, orb) == "vertex-link"


def test_tetra_four_circuits_are_edge_links(tetrahedron):
    p = tetrahedron.base
    for c in enumerate_circuits(p, 4):
        for orb in orbifolds_of(p, c):
            assert base_form(p, orb) == "edge-link"
            assert is_compressible(p, orb)


def test_long_cube_curve_is_compressible(cube_all2):
    # a 6-circuit wobbling around the equator has a one-edge chord
    p = cube_all2.base
    found = 0
    for c in enumerate_circuits(p, 6):
        for orb in orbifolds_of(p, c):
            arcs = find_compressions(p, orb)
            for arc in arcs:
                assert arc.crossed_edge not in set(c.crossed_edges)
                assert all(n >= 2 for n in arc.arc_lengths)
                assert sum(arc.arc_lengths) == c.k
            found += len(arcs)
    assert found > 0


def test_classify_cube_large(cube_all2):
    v = classify(cube_all2.base)
    assert v.verdict == "Large"
    assert v.witness_kind == "incompressible-orbifold"
    assert v.witness.prismatic and v.witness.k == 4


def test_classify_lambert_large(lambert_cube):
    assert classify(lambert_cube.base).verdict == "Large"


def test_classify_tetrahedron_small(tetrahedron):
    v = classify(tetrahedron.base)
    assert v.verdict == "Small"
    assert v.witness_kind == "none-up-to-cap"
    assert v.witness is None


def test_classify_prism_small(triangular_prism):
    v = classify(triangular_prism.base)
    assert v.verdict == "Small"
    assert v.witness_kind == "separating-triangle"
    assert set(v.witness.faces) == {2, 3, 4}


def test_classify_pyramid_small(pyramid):
    v = classify(pyramid.base)
    assert v.verdict == "Small"
    assert v.witness_kind == "none-up-to-cap"


def test_classification_stable_under_cap(cube_all2, tetrahedron):
    for cap in (4, 6, 8):
        assert classify(cube_all2.base, cap=cap).verdict == "Large"
    for cap in (4, 6, 8, 12):
        assert classify(tetrahedron.base, cap=cap).verdict == "Small"


@pytest.mark.parametrize("n", [5, 6])
def test_classify_witness_is_first_in_scan_order(n, loebell):
    # L(n) has incompressible non-prismatic 5-circuits with smaller face
    # tuples than the prismatic witness, so the scan order decides it
    p = loebell(n)
    v = classify(p, cap=6)
    order = sorted(circuits_up_to(p, 6), key=lambda c: (not c.prismatic, c.k, c.faces))
    first = next(c for c in order
                 if any(not is_compressible(p, orb) for orb in orbifolds_of(p, c)))
    assert v.witness == first and first.prismatic and first.k == 5


@pytest.mark.parametrize("name", ["cube_all2", "triangular_prism", "pyramid", "L5", "L6"])
def test_circuits_around_one_vertex_are_vertex_links(name, loebell):
    # a circuit whose crossed edges all meet at one vertex cuts that
    # vertex off, so base_form finds a one-vertex side
    p = loebell(int(name[1:])) if name.startswith("L") else load(name).base
    seen = 0
    for c in circuits_up_to(p, 7):
        if c.k >= 3 and set.intersection(*map(set, c.crossed_edges)):
            seen += 1
            for orb in orbifolds_of(p, c):
                assert base_form(p, orb) == "vertex-link"
    assert seen == len(p.vertices)  # one link per vertex
