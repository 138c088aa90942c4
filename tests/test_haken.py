"""Large/small classification and curve compressions."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvol import corpus, haken
from coxvol.circuits import circuits_up_to, enumerate_circuits, iter_circuits
from coxvol.corpus import CORPUS, load
from coxvol.haken import (HakenVerdict, base_form, classify, find_compressions,
                          is_compressible, orbifolds_of)
from coxvol.poly_model import AbstractPolyhedron


def relabeled(p, seed):
    """p with its vertex ids permuted and its faces reordered."""
    rng = random.Random(seed)
    image = dict(zip(p.vertices, rng.sample(p.vertices, len(p.vertices))))
    faces = [tuple(image[v] for v in f) for f in p.faces]
    rng.shuffle(faces)
    return AbstractPolyhedron(name=p.name, faces=tuple(faces))


def first_witness(p, circuits):
    """The scan-order oracle: the first circuit with an incompressible
    side, prismatic ones first, each group by length and then faces."""
    order = sorted(circuits, key=lambda c: (not c.prismatic, c.k, c.faces))
    return next((c for c in order
                 if any(not is_compressible(p, orb) for orb in orbifolds_of(p, c))), None)


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


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_classify_witness_is_first_in_scan_order(n, loebell):
    # L(n) has incompressible non-prismatic 5-circuits with smaller face
    # tuples than the prismatic witness, so the scan order decides it
    for p in (loebell(n), relabeled(loebell(n), seed=n)):
        v = classify(p)
        assert v == dataclasses.replace(classify(p, cap=6), cap=v.cap)
        first = first_witness(p, circuits_up_to(p, 6))
        assert v.witness == first and first.prismatic and first.k == 5


def test_lazy_scan_stops_at_the_witness_length(loebell, monkeypatch):
    asked = []

    def recording(p, k):
        asked.append(k)
        return iter_circuits(p, k)

    monkeypatch.setattr(haken, "iter_circuits", recording)
    p = loebell(8)
    v = classify(p)
    assert v.witness.k == 5
    assert asked == [3, 4, 5]
    # and inside k = 5: that search never ran to the end, so nothing is stored
    assert sorted(vars(p)["_circuits"]) == [3, 4]


@pytest.mark.parametrize("prismatic_from_k", [None, 6])
def test_non_prismatic_witness_is_only_a_fallback(prismatic_from_k, loebell, monkeypatch):
    # L(5) has incompressible circuits of both kinds at k = 5 and 6; with
    # prismatic flags kept only from k = 6 on (or dropped), the first
    # incompressible 5-circuit becomes the fallback, and a prismatic
    # 6-circuit must still win over it
    def flagged(p, k):
        keep = prismatic_from_k is not None and k >= prismatic_from_k
        return [dataclasses.replace(c, prismatic=c.prismatic and keep)
                for c in enumerate_circuits(p, k)]

    p = loebell(5)
    monkeypatch.setattr(haken, "iter_circuits", flagged)
    v = classify(p, cap=7)
    first = first_witness(p, [c for k in range(3, 8) for c in flagged(p, k)])
    assert v.witness == first
    assert v.witness_kind == "incompressible-orbifold"
    assert (first.k, first.prismatic) == ((5, False) if prismatic_from_k is None else (6, True))


def test_classify_splits_each_circuit_once(loebell, monkeypatch):
    counts = {"vertex_sides": 0, "orbifolds_of": 0}

    def counted(name):
        fn = getattr(haken, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(haken, name, counted(name))
    classify(loebell(7))
    assert counts["orbifolds_of"] > 0
    assert counts["vertex_sides"] == counts["orbifolds_of"]


def test_classify_tests_only_prismatic_circuits_on_a_large_polyhedron(loebell, monkeypatch):
    tested = []

    def recording(p, orb):
        tested.append(orb.curve)
        return is_compressible(p, orb)

    monkeypatch.setattr(haken, "is_compressible", recording)
    v = classify(loebell(7))
    assert v.verdict == "Large" and v.witness.prismatic
    assert tested and all(c.prismatic for c in tested)


# verdict, witness kind and witness faces at caps 3..12, recorded before the
# scan became lazy
RECORDED = {
    "tetrahedron": {cap: ("Small", "none-up-to-cap", None) for cap in range(3, 13)},
    "triangular_prism": {cap: ("Small", "separating-triangle", (2, 3, 4))
                         for cap in range(3, 13)},
    "pyramid": {cap: ("Small", "none-up-to-cap", None) for cap in range(3, 13)},
    "cube_all2": {3: ("Small", "none-up-to-cap", None),
                  **{cap: ("Large", "incompressible-orbifold", (0, 2, 1, 4))
                     for cap in range(4, 13)}},
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_corpus_verdicts_recorded_at_every_cap(name):
    p = load(name).base
    for cap, expected in RECORDED[name].items():
        v = classify(p, cap=cap)
        assert (v.verdict, v.witness_kind, v.witness and v.witness.faces) == expected
        scanned = circuits_up_to(p, cap)
        if v.witness_kind == "separating-triangle":
            assert v.circuits == 0
        elif v.witness is None:
            assert v.circuits == len(scanned)
        else:
            assert v.circuits == scanned.index(v.witness) + 1


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


def eager_classify(p, cap):
    """The verdict from every circuit up to the cap, enumerated in full
    before any is tested."""
    tris = [c for c in enumerate_circuits(p, 3) if c.prismatic]
    if tris:
        return HakenVerdict("Small", tris[0], "separating-triangle", cap, 0)
    scanned = circuits_up_to(p, cap)
    w = first_witness(p, scanned)
    if w is None:
        return HakenVerdict("Small", None, "none-up-to-cap", cap, len(scanned))
    visited = scanned.index(w) + 1 if w.prismatic else len(scanned)
    return HakenVerdict("Large", w, "incompressible-orbifold", cap, visited)


def shape(name, seed):
    """A fresh copy of a corpus polyhedron or of L(n), relabeled unless seed is 0."""
    p = load(name).base if name in CORPUS else corpus.loebell(int(name[1:]))
    return relabeled(p, seed) if seed else p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from([*CORPUS, *(f"L{n}" for n in range(5, 13))]),
       seed=st.integers(0, 3), cap=st.integers(3, 7))
def test_lazy_classify_matches_the_eager_scan(name, seed, cap):
    # each on a fresh polyhedron, so the lazy scan finds no stored circuits
    assert classify(shape(name, seed), cap) == eager_classify(shape(name, seed), cap)
