"""Dual-cycle circuit enumeration."""

from itertools import permutations

import pytest

from coxvol import circuits
from coxvol.circuits import (circuits_up_to, enumerate_circuits, iter_circuits,
                             separating_triangles, vertex_sides)
from coxvol.census import _edge_perms
from coxvol.corpus import CORPUS, load, loebell
from coxvol.poly_model import canonical_cycle


def test_cube_three_circuits(cube_all2):
    tri = enumerate_circuits(cube_all2.base, 3)
    assert len(tri) == 8
    assert all(not c.prismatic for c in tri)


def test_cube_four_circuits(cube_all2):
    quad = enumerate_circuits(cube_all2.base, 4)
    assert len(quad) == 15
    prismatic = [c for c in quad if c.prismatic]
    assert len(prismatic) == 3
    # the three equatorial bands partition the 12 edges
    crossed = [e for c in prismatic for e in c.crossed_edges]
    assert len(crossed) == 12
    assert len(set(crossed)) == 12


def test_prism_separating_triangle(triangular_prism):
    tris = separating_triangles(triangular_prism.base)
    assert len(tris) == 1
    (c,) = tris
    assert set(c.faces) == {2, 3, 4}  # the three quadrilateral sides


def test_tetrahedron_has_no_separating_triangle(tetrahedron):
    assert separating_triangles(tetrahedron.base) == []
    # every 3-circuit surrounds a vertex
    for c in enumerate_circuits(tetrahedron.base, 3):
        common = set(c.crossed_edges[0])
        for e in c.crossed_edges[1:]:
            common &= set(e)
        assert len(common) == 1


def test_pyramid_has_no_short_prismatic_circuits(pyramid):
    for k in (3, 4):
        assert all(not c.prismatic for c in enumerate_circuits(pyramid.base, k))


def test_nonprismatic_cube_triangles_surround_a_vertex(cube_all2):
    for c in enumerate_circuits(cube_all2.base, 3):
        common = set(c.crossed_edges[0])
        for e in c.crossed_edges[1:]:
            common &= set(e)
        assert len(common) == 1


def test_circuit_invariants(lambert_cube):
    p = lambert_cube.base
    for c in circuits_up_to(p, cap=6):
        assert len(set(c.faces)) == c.k
        assert len(c.crossed_edges) == c.k
        # consecutive faces share the recorded edge
        for i in range(c.k):
            fa, fb = c.faces[i], c.faces[(i + 1) % c.k]
            assert p.face_adjacency[(fa, fb)] == c.crossed_edges[i]
        ends = [v for e in c.crossed_edges for v in e]
        assert c.prismatic == (len(set(ends)) == len(ends))


def test_vertex_sides_partition(cube_all2):
    p = cube_all2.base
    for c in circuits_up_to(p, cap=6):
        a, b = vertex_sides(p, c)
        assert a | b == set(p.vertices)
        assert not (a & b)
        # each crossed edge straddles the cut
        for e in c.crossed_edges:
            assert (e[0] in a) != (e[1] in a)


def test_circuit_count_is_automorphism_invariant(triangular_prism):
    p = triangular_prism.base
    base_counts = {k: len(enumerate_circuits(p, k)) for k in (3, 4, 5)}
    for perm in _edge_perms(p)[:6]:
        emap = {e: p.edges[j] for e, j in zip(p.edges, perm)}
        for k in (3, 4, 5):
            circuits = enumerate_circuits(p, k)
            mapped = {frozenset(emap[e] for e in c.crossed_edges) for c in circuits}
            assert len(mapped) == base_counts[k]


def test_k_below_three_rejected(cube_all2):
    with pytest.raises(ValueError):
        enumerate_circuits(cube_all2.base, 2)


@pytest.mark.parametrize("name", [*sorted(CORPUS), "L5"])
def test_circuits_come_out_canonical_and_sorted(name):
    p = loebell(5) if name == "L5" else load(name).base
    nf = len(p.faces)
    top = 5 if name == "L5" else nf
    for k in range(3, top + 1):
        found = [c.faces for c in enumerate_circuits(p, k)]
        assert all(faces == canonical_cycle(faces) for faces in found)
        assert all(a < b for a, b in zip(found, found[1:]))
        # oracle: every ordering of k distinct faces that closes up
        brute = {canonical_cycle(seq) for seq in permutations(range(nf), k)
                 if all((seq[i], seq[(i + 1) % k]) in p.face_adjacency for i in range(k))}
        assert set(found) == brute


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_iterator_and_list_agree(name):
    # each on a polyhedron of its own, so each runs the search itself
    nf = len(load(name).base.faces)
    p, q = load(name).base, load(name).base
    for k in range(3, nf + 1):
        assert list(iter_circuits(p, k)) == enumerate_circuits(q, k)
        # and again, replayed
        assert list(iter_circuits(q, k)) == enumerate_circuits(p, k)


def test_later_calls_replay_the_first_search(monkeypatch):
    searched = []
    search = circuits._search

    def counted(p, k, found):
        searched.append(k)
        return search(p, k, found)

    monkeypatch.setattr(circuits, "_search", counted)
    p = loebell(7)
    first = enumerate_circuits(p, 5)
    assert enumerate_circuits(p, 5) == list(iter_circuits(p, 5)) == first
    separating_triangles(p)
    circuits_up_to(p, 5)
    assert searched == [5, 3, 4]


def test_mutating_a_returned_list_leaves_the_next_call_unchanged(cube_all2):
    p = cube_all2.base
    quads = enumerate_circuits(p, 4)
    expected = list(quads)
    quads.pop()
    quads.reverse()
    assert enumerate_circuits(p, 4) == expected
    assert list(iter_circuits(p, 4)) == expected


@pytest.mark.parametrize("taken", [0, 1, 8, 97])
def test_an_abandoned_iterator_stores_nothing(taken):
    p = loebell(7)
    it = iter_circuits(p, 5)
    head = [next(it) for _ in range(taken)]
    it.close()
    assert 5 not in vars(p).get("_circuits", {})
    full = enumerate_circuits(p, 5)
    assert full[:taken] == head
    assert full == enumerate_circuits(loebell(7), 5) and len(full) == 98
