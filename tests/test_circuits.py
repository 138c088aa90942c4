"""Dual-cycle circuit enumeration."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvol import andreev, circuits
from coxvol.circuits import (Circuit, circuits_up_to, enumerate_circuits, iter_cycles,
                             separating_triangles, vertex_sides)
from coxvol.census import _edge_perms
from coxvol.corpus import CORPUS, load, loebell
from coxvol.haken import classify
from coxvol.poly_model import AbstractPolyhedron, canonical_cycle


def relabeled(p, seed):
    """p with its vertex ids permuted and its faces reordered."""
    rng = random.Random(seed)
    image = dict(zip(p.vertices, rng.sample(p.vertices, len(p.vertices))))
    faces = [tuple(image[v] for v in f) for f in p.faces]
    rng.shuffle(faces)
    return AbstractPolyhedron(name=p.name, faces=tuple(faces),
                              ideal_candidates=frozenset(image[v] for v in p.ideal_candidates))


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


def test_vertex_sides_refuses_a_curve_that_leaves_one_component(cube_all2):
    # cutting one edge of the cube leaves its vertices connected
    p = cube_all2.base
    c = Circuit((0, 2), (p.face_adjacency[0, 2],), False)
    with pytest.raises(ValueError, match=r"does not cut the vertex set into two sides "
                                         r"\(got 1 components\)"):
        vertex_sides(p, c)


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
        assert list(iter_cycles(p, k)) == records(enumerate_circuits(q, k))
        # and again, replayed
        assert list(iter_cycles(q, k)) == records(enumerate_circuits(p, k))


def records(found):
    """The (faces, prismatic) records of a list of circuits."""
    return [(c.faces, c.prismatic) for c in found]


def counting(monkeypatch, record):
    """Patch the two enumerators so every call appends to ``record``: k
    for a depth-first search, (3, 4) for the intersection pass."""
    search, short = circuits._search, circuits._short_cycles

    def counted_search(p, k, found):
        record.append(k)
        return search(p, k, found)

    def counted_short(p, found):
        record.append((3, 4))
        return short(p, found)

    monkeypatch.setattr(circuits, "_search", counted_search)
    monkeypatch.setattr(circuits, "_short_cycles", counted_short)


def test_later_calls_replay_the_first_search(monkeypatch):
    searched = []
    counting(monkeypatch, searched)
    p = loebell(7)
    first = enumerate_circuits(p, 5)
    assert len(first) == 98
    assert enumerate_circuits(p, 5) == first
    assert list(iter_cycles(p, 5)) == records(first)
    separating_triangles(p)
    circuits_up_to(p, 5)
    andreev.constraints(p)
    classify(p)
    assert searched == [5, (3, 4)]
    # and the endpoint masks both enumerators read are built once
    assert circuits._edge_masks(p) is vars(p)["_edge_masks"]


def test_mutating_a_returned_list_leaves_the_next_call_unchanged(cube_all2):
    p = cube_all2.base
    quads = enumerate_circuits(p, 4)
    expected = list(quads)
    quads.pop()
    quads.reverse()
    assert enumerate_circuits(p, 4) == expected
    assert list(iter_cycles(p, 4)) == records(expected)


@pytest.mark.parametrize("taken", [0, 1, 8, 97])
def test_an_abandoned_iterator_stores_nothing(taken, monkeypatch):
    searched = []
    counting(monkeypatch, searched)
    p = loebell(7)
    it = iter_cycles(p, 5)
    head = [next(it) for _ in range(taken)]
    it.close()
    full = enumerate_circuits(p, 5)  # the abandoned search kept nothing, so this one searches again
    assert searched == [5, 5]
    assert records(full[:taken]) == head
    assert full == enumerate_circuits(loebell(7), 5) and len(full) == 98
    assert searched == [5, 5, 5]


def short_cycles_match_the_search(p):
    """The intersection pass against the depth-first search, called
    directly, and each prismatic flag against the crossed edges."""
    found = {}
    circuits._short_cycles(p, found)
    for k in (3, 4):
        assert found[k] == tuple(circuits._search(p, k, {}))
        for faces, prismatic in found[k]:
            ends = [v for i in range(k) for v in p.face_adjacency[faces[i - 1], faces[i]]]
            assert prismatic == (len(set(ends)) == 2 * k)


@pytest.mark.parametrize("name", [*sorted(CORPUS), *(f"L{n}" for n in range(3, 31))])
def test_short_cycles_match_the_search(name):
    short_cycles_match_the_search(loebell(int(name[1:])) if name.startswith("L")
                                  else load(name).base)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CORPUS)), seed=st.integers(1, 10**6))
def test_short_cycles_match_the_search_on_relabelings(name, seed):
    short_cycles_match_the_search(relabeled(load(name).base, seed))


def test_a_face_running_an_edge_twice_is_not_its_own_neighbour():
    # a malformed cube: face 5 runs the edge (3, 4) both ways
    p = AbstractPolyhedron("x", ((0, 1, 2, 3), (7, 6, 5, 4), (0, 4, 5, 1), (1, 5, 6, 2),
                                 (2, 6, 7, 3), (7, 4, 3, 4, 0)))
    assert 5 in p.face_neighbors[5]
    short_cycles_match_the_search(p)


def test_tables_and_classify_build_only_the_circuits_they_keep(monkeypatch):
    built = []
    init = Circuit.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "__init__", counted)
    andreev.constraints(loebell(7))  # 28 vertex links and 42 edge links, none prismatic
    assert built == []
    andreev.constraints(load("cube_all2").base)  # its three equatorial bands
    assert len(built) == 3
    # classify builds the prismatic circuits it tests, the witness last
    built.clear()
    p = loebell(7)
    v = classify(p)
    scanned = [prismatic for k in (3, 4, 5) for _, prismatic in circuits.iter_cycles(p, k)]
    assert len(built) == sum(scanned[:v.circuits]) > 0
