"""Large/small classification and curve compressions."""

import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvol import circuits, corpus, haken
from coxvol.circuits import (Circuit, circuits_up_to, enumerate_circuits, iter_cycles,
                             vertex_sides)
from coxvol.corpus import CORPUS, load
from coxvol.haken import HakenVerdict, classify, is_compressible
from coxvol.poly_model import AbstractPolyhedron


def relabeling(p, seed):
    """p with its vertex ids permuted and its faces reordered, and the
    id in p of each of its faces."""
    rng = random.Random(seed)
    image = dict(zip(p.vertices, rng.sample(p.vertices, len(p.vertices))))
    order = list(range(len(p.faces)))
    rng.shuffle(order)
    faces = tuple(tuple(image[v] for v in p.faces[f]) for f in order)
    return AbstractPolyhedron(name=p.name, faces=faces), order


def relabeled(p, seed):
    """p with its vertex ids permuted and its faces reordered."""
    return relabeling(p, seed)[0]


# The reference: compressibility read off the definition, every shape and
# chord condition checked as stated, none of them taken as given.

def link_shape(p, disk):
    """'vertex-link' or 'edge-link' when the disk or its complement is one
    vertex or the two ends of one edge, else None."""
    for side in (disk, set(p.vertices) - disk):
        if len(side) == 1:
            return "vertex-link"
        if len(side) == 2 and tuple(sorted(side)) in p.edge_faces:
            return "edge-link"
    return None


def chords(p, c, disk):
    """The chords of ``c`` through the disk, as (edge, arc lengths): an
    edge, not a crossed one, joining two curve faces, with both ends in
    the disk and splitting the curve into two arcs that each cross at
    least two edges."""
    crossed = set(c.crossed_edges)
    out = []
    for i, j in combinations(range(c.k), 2):
        arcs = (j - i, c.k - (j - i))
        g = p.face_adjacency.get((c.faces[i], c.faces[j]))
        if min(arcs) >= 2 and g is not None and g not in crossed and set(g) <= disk:
            out.append((g, arcs))
    return out


def compressible_by_definition(p, c, disk):
    return link_shape(p, disk) is not None or bool(chords(p, c, disk))


def incompressible_side(p, c):
    """Whether either side of ``c`` is incompressible, by the reference."""
    return not all(compressible_by_definition(p, c, disk) for disk in vertex_sides(p, c))


def first_witness(p, circuits):
    """The scan-order oracle: the first circuit with an incompressible
    side, prismatic ones first, each group by length and then faces."""
    order = sorted(circuits, key=lambda c: (not c.prismatic, c.k, c.faces))
    return next((c for c in order if incompressible_side(p, c)), None)


def both_ways(p, c):
    """The two (side, other) orders of the sides of ``c``."""
    a, b = vertex_sides(p, c)
    return (a, b), (b, a)


def equatorial_band(p):
    quads = [c for c in enumerate_circuits(p, 4) if c.prismatic]
    return quads[0]


def test_cube_band_has_no_compressions(cube_all2):
    p = cube_all2.base
    c = equatorial_band(p)
    for side, other in both_ways(p, c):
        assert link_shape(p, side) is None
        assert chords(p, c, side) == []
        assert not is_compressible(p, c, side, other)


def test_cube_vertex_link_is_compressible(cube_all2):
    p = cube_all2.base
    for c in enumerate_circuits(p, 3):
        for side, other in both_ways(p, c):
            assert link_shape(p, side) == "vertex-link"
            assert is_compressible(p, c, side, other)


def test_tetra_four_circuits_are_edge_links(tetrahedron):
    p = tetrahedron.base
    for c in enumerate_circuits(p, 4):
        for side, other in both_ways(p, c):
            assert link_shape(p, side) == "edge-link"
            assert is_compressible(p, c, side, other)


def test_long_cube_curve_is_compressible(cube_all2):
    # a 6-circuit wobbling around the equator has a one-edge chord, on the
    # side that holds both its ends
    p = cube_all2.base
    found = 0
    for c in enumerate_circuits(p, 6):
        for side, other in both_ways(p, c):
            arcs = chords(p, c, side)
            for edge, lengths in arcs:
                assert edge not in set(c.crossed_edges)
                assert all(n >= 2 for n in lengths)
                assert sum(lengths) == c.k
                assert set(edge) <= side and not set(edge) & other
            if arcs:
                assert is_compressible(p, c, side, other)
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
    # lengths 3 and 4 come from one intersection pass, 5 from the search
    asked = []
    search, short = circuits._search, circuits._short_cycles

    def recording(p, k, found):
        asked.append([k, 0])
        for cycle in search(p, k, found):
            asked[-1][1] += 1
            yield cycle

    def short_recording(p, found):
        asked.append([(3, 4), None])
        short(p, found)

    monkeypatch.setattr(circuits, "_search", recording)
    monkeypatch.setattr(circuits, "_short_cycles", short_recording)
    p = loebell(8)
    v = classify(p)
    assert v.witness.k == 5
    shorter = len(enumerate_circuits(p, 3)) + len(enumerate_circuits(p, 4))
    assert asked == [[(3, 4), None], [5, v.circuits - shorter]]
    # and inside k = 5: that search never ran to the end, so nothing is
    # stored and the next call searches again, to the end
    assert len(enumerate_circuits(p, 5)) > v.circuits - shorter
    assert [k for k, _ in asked] == [(3, 4), 5, 5]


@pytest.mark.parametrize("prismatic_from_k", [None, 6])
def test_non_prismatic_witness_is_only_a_fallback(prismatic_from_k, loebell, monkeypatch):
    # L(5) has incompressible circuits of both kinds at k = 5 and 6; with
    # prismatic flags kept only from k = 6 on (or dropped), the first
    # incompressible 5-circuit becomes the fallback, and a prismatic
    # 6-circuit must still win over it
    def flagged(p, k):
        keep = prismatic_from_k is not None and k >= prismatic_from_k
        return [(faces, prismatic and keep) for faces, prismatic in iter_cycles(p, k)]

    p = loebell(5)
    monkeypatch.setattr(haken, "iter_cycles", flagged)
    v = classify(p, cap=7)
    first = first_witness(p, [Circuit.from_faces(p, *cycle)
                              for k in range(3, 8) for cycle in flagged(p, k)])
    assert v.witness == first
    assert v.witness_kind == "incompressible-orbifold"
    assert (first.k, first.prismatic) == ((5, False) if prismatic_from_k is None else (6, True))


@pytest.mark.parametrize("name", ["L7", "pyramid"])
def test_classify_splits_each_circuit_once(name, loebell, monkeypatch):
    # one vertex_sides call per circuit tested, and its two sides are
    # tested in that split, the second only when the first compresses:
    # on the Small pyramid every circuit is tested on both sides
    splits, tests = [], []

    def splitting(p, c):
        splits.append(vertex_sides(p, c))
        return splits[-1]

    def recording(p, c, side, other):
        tests.append((c.faces, side, other))
        return is_compressible(p, c, side, other)

    monkeypatch.setattr(haken, "vertex_sides", splitting)
    monkeypatch.setattr(haken, "is_compressible", recording)
    v = classify(loebell(7) if name == "L7" else load(name).base)
    tested = list(dict.fromkeys(faces for faces, _, _ in tests))
    assert tested and len(splits) == len(tested)
    for faces, (a, b) in zip(tested, splits):
        calls = [(side, other) for f, side, other in tests if f == faces]
        assert calls == [(a, b), (b, a)][:len(calls)]
        assert len(calls) == 2 or v.witness and faces == v.witness.faces
    assert v.witness or len(tests) == 2 * v.circuits


def test_classify_tests_only_prismatic_circuits_on_a_large_polyhedron(loebell, monkeypatch):
    tested = []

    def recording(p, c, side, other):
        tested.append(c)
        return is_compressible(p, c, side, other)

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


# the default-cap verdict, witness faces and circuits visited, recorded
# when the 3- and 4-circuits still came from the depth-first search
DEFAULT_CAP = {
    "cube_all2": ("Large", "incompressible-orbifold", (0, 2, 1, 4), 10),
    "lambert_cube": ("Large", "incompressible-orbifold", (0, 2, 1, 4), 10),
    "pyramid": ("Small", "none-up-to-cap", None, 13),
    "tetrahedron": ("Small", "none-up-to-cap", None, 7),
    "triangular_prism": ("Small", "separating-triangle", (2, 3, 4), 0),
    "L5": ("Large", "incompressible-orbifold", (0, 1, 6, 7, 3), 57),
    "L6": ("Large", "incompressible-orbifold", (0, 1, 7, 8, 3), 67),
    "L7": ("Large", "incompressible-orbifold", (0, 1, 8, 9, 3), 77),
    "L8": ("Large", "incompressible-orbifold", (0, 1, 9, 10, 3), 87),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_CAP))
def test_default_cap_verdicts_recorded(name, loebell):
    p = loebell(int(name[1:])) if name.startswith("L") else load(name).base
    v = classify(p)
    assert (v.verdict, v.witness_kind, v.witness and v.witness.faces, v.circuits) == DEFAULT_CAP[name]


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
    # vertex off, so one of its sides is that vertex alone
    p = loebell(int(name[1:])) if name.startswith("L") else load(name).base
    seen = 0
    for c in circuits_up_to(p, 7):
        if c.k >= 3 and set.intersection(*map(set, c.crossed_edges)):
            seen += 1
            for side, other in both_ways(p, c):
                assert link_shape(p, side) == "vertex-link"
                assert is_compressible(p, c, side, other)
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


def shape(name, seed, prism=None):
    """A fresh copy of a corpus polyhedron, of L(n) or of the n-prism
    ``Pn``, relabeled unless seed is 0."""
    if name in CORPUS:
        p = load(name).base
    else:
        p = (corpus.loebell if name[0] == "L" else prism)(int(name[1:]))
    return relabeled(p, seed) if seed else p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from([*CORPUS, *(f"L{n}" for n in range(5, 13))]),
       seed=st.integers(0, 3), cap=st.integers(3, 7))
def test_lazy_classify_matches_the_eager_scan(name, seed, cap):
    # each on a fresh polyhedron, so the lazy scan finds no stored circuits
    assert classify(shape(name, seed), cap) == eager_classify(shape(name, seed), cap)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from([*CORPUS, *(f"L{n}" for n in range(5, 13)),
                             *(f"P{n}" for n in range(3, 11))]),
       seed=st.integers(0, 3), cap=st.integers(3, 7))
def test_is_compressible_matches_the_definition(name, seed, cap, prism):
    p = shape(name, seed, prism)
    for c in circuits_up_to(p, cap):
        for side, other in both_ways(p, c):
            assert is_compressible(p, c, side, other) == compressible_by_definition(p, c, side)


def is_prismatic(c):
    return len(set().union(*c.crossed_edges)) == 2 * c.k


@pytest.mark.parametrize("n", range(3, 11))
def test_prism_verdicts_recorded(n, prism):
    # recorded before compressibility became one test on the two sides
    v = classify(prism(n))
    expected = (("Small", "separating-triangle", (1, 2, 3), 0) if n == 3 else
                ("Large", "incompressible-orbifold", (0, 1, n + 1, 3), 2 * n + 4))
    assert (v.verdict, v.witness_kind, v.witness.faces, v.circuits) == expected
    # a relabeled, face-reordered copy gets the same verdict from its own
    # scan order, and its witness, read back in the original, is one there
    q, order = relabeling(prism(n), seed=n)
    w = classify(q)
    assert w == eager_classify(q, w.cap)
    assert (w.verdict, w.witness_kind, w.witness.k) == (v.verdict, v.witness_kind, v.witness.k)
    back = Circuit.from_faces(prism(n), tuple(order[f] for f in w.witness.faces), True)
    assert is_prismatic(back) and w.witness.prismatic and incompressible_side(prism(n), back)
