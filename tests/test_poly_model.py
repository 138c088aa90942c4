"""Combinatorial model: parsing, validation, automorphisms."""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvol import corpus, poly_model
from coxvol.census import _edge_perms
from coxvol.corpus import CORPUS, corpus_text, load
from coxvol.poly_model import (AbstractPolyhedron, LabeledPolyhedron, ParseError,
                               PolyhedronError, automorphisms, canonical_cycle,
                               edge_key, parse_polyhedron, serialize_polyhedron,
                               validate)


def _preserves_faces(p: AbstractPolyhedron, vmap: dict[int, int]) -> bool:
    """Whether the vertex map sends every face cycle to a face cycle."""
    face_set = {canonical_cycle(c) for c in p.faces}
    return all(canonical_cycle(vmap[v] for v in cyc) in face_set for cyc in p.faces)


def automorphisms_brute(p: AbstractPolyhedron) -> list[dict[int, int]]:
    """Exhaustive oracle: every vertex bijection that sends each face
    cycle to a face cycle.  Bijections grow one vertex at a time, in
    breadth-first order, and a partial one is cut as soon as it sends an
    edge between placed vertices to a non-edge, which no such bijection
    does: past the first vertex, each has a placed neighbour u, so its
    image is a neighbour of u's."""
    order = [p.vertices[0]]
    for v in order:
        order += [w for e in p.vertex_edges[v] for w in e if w not in order]
    nbrs = {v: [w for e in p.vertex_edges[v] for w in e if w != v] for v in p.vertices}
    edges = set(p.edges)
    found = []

    def extend(vmap: dict[int, int]) -> None:
        if len(vmap) == len(order):
            if _preserves_faces(p, vmap):
                found.append(dict(vmap))
            return
        v = order[len(vmap)]
        placed = [vmap[u] for u in nbrs[v] if u in vmap]
        options = set(nbrs[placed[0]]) if placed else set(p.vertices)
        for w in options - set(vmap.values()):
            if all(edge_key(x, w) in edges for x in placed):
                vmap[v] = w
                extend(vmap)
                del vmap[v]

    extend({})
    return found


def automorphism_maps(p: AbstractPolyhedron) -> list[dict[int, int]]:
    """``automorphisms(p)`` as one vertex map per row, in row order."""
    return [dict(zip(p.vertices, r)) for r in automorphisms(p).tolist()]


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_validates(name):
    lp = load(name)
    report = validate(lp.base)
    assert report.passed, report.violations


@pytest.mark.parametrize("name", CORPUS)
def test_serialize_round_trip(name):
    lp = load(name)
    text = serialize_polyhedron(lp)
    lp2 = parse_polyhedron(text)
    assert lp2.base.faces == lp.base.faces
    assert lp2.base.outer_face == lp.base.outer_face
    assert lp2.base.ideal_candidates == lp.base.ideal_candidates
    assert lp2.labels == lp.labels
    # serializing again is a fixed point
    assert serialize_polyhedron(lp2) == text


def test_euler_relation_holds_on_corpus():
    for name in CORPUS:
        p = load(name).base
        V, E, F = len(p.vertices), len(p.edges), len(p.faces)
        assert V - E + F == 2


def test_unlabeled_edges_default_with_warning(cube_all2):
    assert all(n == 2 for n in cube_all2.labels.values())
    assert any("unlabeled" in w for w in cube_all2.warnings)


def test_angles_are_pi_over_label(lambert_cube):
    for e, theta in lambert_cube.angles().items():
        assert theta == pytest.approx(math.pi / lambert_cube.labels[e])


def test_labeled_polyhedron_equality_defers_to_other_types(lambert_cube):
    # against another type __eq__ returns NotImplemented, so == falls back
    # to identity instead of raising
    assert lambert_cube.__eq__(lambert_cube.base) is NotImplemented
    assert lambert_cube != lambert_cube.base and not lambert_cube == 3
    assert lambert_cube == load("lambert_cube")


def test_parse_rejects_bad_label_line():
    text = corpus_text("cube_all2") + "\nlabel 0 1\n"
    with pytest.raises(ParseError):
        parse_polyhedron(text)


def test_parse_rejects_label_on_missing_edge():
    text = corpus_text("cube_all2") + "\nlabel 0 6 3\n"
    with pytest.raises(ParseError):
        parse_polyhedron(text)


def test_validate_flags_open_surface():
    # two faces sharing an edge but no closed surface
    p = AbstractPolyhedron(name="open", faces=((0, 1, 2), (0, 2, 3)),
                           outer_face=1, ideal_candidates=frozenset())
    report = validate(p)
    assert not report.passed
    rules = {v.rule for v in report.violations}
    assert "edge-two-faces" in rules


def _scrambled(p: AbstractPolyhedron, seed: int) -> AbstractPolyhedron:
    """p with faces 1.. shuffled and every other cycle reversed."""
    rest = list(p.faces[1:])
    random.Random(seed).shuffle(rest)
    faces = [c[::-1] if i % 2 else c for i, c in enumerate([p.faces[0], *rest])]
    return AbstractPolyhedron(name=p.name, faces=tuple(faces))


@pytest.mark.parametrize("name", ["cube_all2", "L6"])
def test_oriented_faces_of_scrambled_cycles(name, loebell):
    base = loebell(6) if name == "L6" else load(name).base
    p = _scrambled(base, seed=len(base.faces))
    oriented = p.oriented_faces
    assert oriented[0] == p.faces[0]
    assert all(o in (f, f[::-1]) for o, f in zip(oriented, p.faces))
    darts = [(c[i], c[(i + 1) % len(c)]) for c in oriented for i in range(len(c))]
    assert len(set(darts)) == len(darts) == 2 * len(p.edges)


@pytest.mark.parametrize("faces", [
    ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)),  # hemi-cube: non-orientable
    ((0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0),  # two disjoint tetrahedra
     (4, 5, 6), (4, 7, 5), (5, 7, 6), (6, 7, 4)),
    (),  # no faces, no surface
    ((0, 0),),  # the dart 0 -> 0, on no edge, twice
])
def test_oriented_faces_none_without_one_closed_orientable_surface(faces):
    p = AbstractPolyhedron(name="bad", faces=faces)
    assert p.oriented_faces is None
    with pytest.raises(PolyhedronError):
        automorphisms(p)


def test_validate_flags_low_face_count():
    p = AbstractPolyhedron(name="tri", faces=((0, 1, 2), (2, 1, 0)),
                           outer_face=1, ideal_candidates=frozenset())
    rules = {v.rule for v in validate(p).violations}
    assert "face-count" in rules


# a tetrahedron on lines 1-5; a case appends its bad line as line 6
TET = "polyhedron t\nface 0: 0 1 3\nface 1: 1 2 3\nface 2: 2 0 3\nface 3: 0 2 1\n"


@pytest.mark.parametrize("text, message, line", [
    ("polyhedron t u\nface 0: 0 1 2\n", "expected: polyhedron <name>", 1),
    (TET + "vertex\n", "expected: vertex <id> [ideal-candidate]", 6),
    (TET + "vertex x\n", "bad vertex id 'x'", 6),
    (TET + "vertex 0 ideal\n", "unknown vertex flag 'ideal'", 6),
    (TET + "face 4 0 1 2\n", "expected: face <id>: <v0> <v1> ...", 6),
    (TET + "face x: 0 1 2\n", "bad face id 'x'", 6),
    (TET + "face 4: 0 1\n", "face 4 needs at least 3 vertices", 6),
    (TET + "face 4: 0 1 y\n", "face vertices must be integers", 6),
    (TET + "face 3: 0 1 2\n", "duplicate face id 3", 6),
    ("polyhedron t\nface 0: 0 1 3 outer\nface 1: 1 2 3 outer\n",
     "more than one face marked outer", 3),
    (TET + "label 0 1\n", "expected: label <va> <vb> <n>", 6),
    (TET + "label 0 1 x\n", "label arguments must be integers", 6),
    (TET + "label 0 1 1\n", "label 1 < 2 on edge (0,1)", 6),
    (TET + "label 1 1 3\n", "label on degenerate edge (1,1)", 6),
    (TET + "label 0 1 3\nlabel 1 0 4\n", "duplicate label on edge (0,1)", 7),
    (TET + "vertex 0\nvertex 0 ideal-candidate\n", "duplicate vertex 0", 7),
    (TET + "edge 0 1\n", "unknown directive 'edge'", 6),
    ("face 0: 0 1 3\n", "missing 'polyhedron <name>' header", None),
    ("polyhedron t\n", "no faces given", None),
    (TET + "vertex 9\n", "declared vertex 9 appears in no face", None),
    ("polyhedron t\nface 0: 0 1 2\n", "edge (0, 1) occurs in 1 face cycles, expected 2", None),
    (TET + "label 0 9 3\n", "label on unknown edge (0, 9)", None),
])
def test_parse_error_sites(text, message, line):
    with pytest.raises(ParseError) as info:
        parse_polyhedron(text)
    assert info.value.line == line
    assert str(info.value) == (f"line {line}: " if line else "") + message


# two hemi-dodecahedra: Petersen graphs on the projective plane, Euler
# characteristic 1 each, so every rule but closedness passes
_HEMI = ((0, 1, 2, 3, 4), (0, 1, 6, 8, 5), (0, 4, 9, 7, 5),
         (1, 2, 7, 9, 6), (2, 3, 8, 5, 7), (3, 4, 9, 6, 8))


@pytest.mark.parametrize("faces, rule, witness", [
    (((0, 1), (0, 1, 2), (0, 2, 1)), "short-face", (0,)),
    (((0, 1, 1, 2), (2, 1, 0)), "repeated-vertex", (0,)),
    (((0, 1, 2, 1), (0, 1, 2)), "repeated-vertex", (0,)),
    (((0, 1, 2, 5), (1, 0, 3, 5)), "face-intersection", (0, 1, (0, 1), (5,))),
    (((0, 1, 2), (0, 3, 1, 4)), "face-intersection", (0, 1, (0, 1))),
    (_HEMI + tuple(tuple(v + 10 for v in c) for c in _HEMI), "not-closed", ()),
])
def test_validate_rule_witnesses(faces, rule, witness):
    violations = validate(AbstractPolyhedron(name="bad", faces=faces)).violations
    assert (rule, witness) in [(v.rule, v.witness) for v in violations]
    if rule == "not-closed":
        assert len(violations) == 1


def validate_oracle(p: AbstractPolyhedron) -> poly_model.ValidationReport:
    """``validate`` with the face-intersection rule tested on every pair
    of faces, from each face's vertex and edge sets."""
    Violation = poly_model.Violation
    out = []
    if len(p.faces) <= 3:
        out.append(Violation("face-count", (len(p.faces),),
                             f"only {len(p.faces)} faces, need more than 3"))
    for fid, cyc in enumerate(p.faces):
        if len(cyc) < 3:
            out.append(Violation("short-face", (fid,), f"face {fid} has fewer than 3 vertices"))
        if len(set(cyc)) != len(cyc):
            out.append(Violation("repeated-vertex", (fid,), f"face {fid} repeats a vertex"))
    for e, fs in p.edge_faces.items():
        if len(fs) != 2:
            out.append(Violation("edge-two-faces", (e, fs), f"edge {e} lies in {len(fs)} faces"))
    for v in p.vertices:
        d = p.valence(v)
        if d != 3 and not (d == 4 and v in p.ideal_candidates):
            out.append(Violation("trivalence", (v, d), f"vertex {v} has valence {d}"))
    V, E, F = len(p.vertices), len(p.edge_faces), len(p.faces)
    if V - E + F != 2:
        out.append(Violation("euler", (V, E, F), f"V-E+F = {V - E + F}, expected 2"))
    order = {e: i for i, e in enumerate(p.edge_faces)}
    face_verts = [set(cyc) for cyc in p.faces]
    face_edges = [set() for _ in p.faces]
    for e, fs in p.edge_faces.items():
        for f in fs:
            face_edges[f].add(e)
    for fa, fb in itertools.combinations(range(F), 2):
        shared_v = face_verts[fa] & face_verts[fb]
        shared_e = sorted(face_edges[fa] & face_edges[fb], key=order.__getitem__)
        if len(shared_e) > 1:
            out.append(Violation("face-intersection", (fa, fb, tuple(shared_e)),
                                 f"faces {fa},{fb} share {len(shared_e)} edges"))
        elif len(shared_e) == 1:
            extra = shared_v - set(shared_e[0])
            if extra:
                out.append(Violation("face-intersection",
                                     (fa, fb, shared_e[0], tuple(sorted(extra))),
                                     f"faces {fa},{fb} share an edge and extra vertices"))
        elif len(shared_v) > 1:
            out.append(Violation("face-intersection", (fa, fb, tuple(sorted(shared_v))),
                                 f"faces {fa},{fb} share {len(shared_v)} vertices but no edge"))
    if not out and p.oriented_faces is None:
        out.append(Violation("not-closed", (), "face cycles admit no consistent orientation"))
    return poly_model.ValidationReport(tuple(out))


@st.composite
def face_lists(draw):
    """Face lists that break the rules in many ways at once: small random
    cycles over a few vertex ids, where short faces, repeated vertices,
    v -> v darts and faces sharing two edges come up by themselves, or a
    relabeled closed polyhedron with a few faces edited; either may get
    a shifted copy of some of its faces as a disconnected piece."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        faces = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=6).map(tuple), max_size=9))
    else:
        _, moved, _ = relabeled(draw(RELABELED_NAMES), draw(st.randoms(use_true_random=False)))
        faces = list(moved.faces)
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(faces) - 1))
            cyc = list(faces[i])
            if not cyc:
                continue
            j = draw(st.integers(0, len(cyc) - 1))
            edit = draw(st.sampled_from(["repeat", "dart", "cut", "copy", "swap"]))
            if edit == "repeat":
                cyc[j] = cyc[(j + 2) % len(cyc)]
            elif edit == "dart":
                cyc.insert(j, cyc[j])
            elif edit == "cut":
                cyc = cyc[:j]
            elif edit == "copy":  # the copy shares every edge with the face
                faces.append(faces[i])
            else:
                k = draw(st.integers(0, len(faces) - 1))
                cyc, faces[k] = list(faces[k]), faces[i]
            faces[i] = tuple(cyc)
    shift = 1 + max((v for cyc in faces for v in cyc), default=0)
    k = draw(st.integers(0, len(faces)))
    faces += [tuple(v + shift for v in cyc) for cyc in faces[:k]]
    return tuple(faces)


def _assert_validate_matches_oracle(p: AbstractPolyhedron) -> None:
    report, expected = validate(p), validate_oracle(p)
    assert report == expected
    assert repr(report) == repr(expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(faces=face_lists())
def test_validate_matches_the_all_pairs_oracle(faces):
    _assert_validate_matches_oracle(AbstractPolyhedron(name="drawn", faces=faces))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(faces=face_lists())
def test_incidences_match_their_definitions(faces):
    # edges in the order of their first dart, each with its faces in dart
    # order; each vertex's distinct faces and its edges, ascending
    p = AbstractPolyhedron(name="drawn", faces=faces)
    darts = [(fid, a, b) for fid, cyc in enumerate(faces)
             for a, b in zip(cyc, cyc[1:] + cyc[:1]) if a != b]
    edge_faces = {edge_key(a, b): () for _, a, b in darts}
    for fid, a, b in darts:
        edge_faces[edge_key(a, b)] += (fid,)
    assert list(p.edge_faces.items()) == list(edge_faces.items())
    assert p.vertex_faces == {v: tuple(sorted({f for f, cyc in enumerate(faces) if v in cyc}))
                              for v in p.vertices}
    assert p.vertex_edges == {v: tuple(sorted(e for e in edge_faces if v in e))
                              for v in p.vertices}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from([*CORPUS, *(f"L{n}" for n in range(5, 13))]),
       rnd=st.randoms(use_true_random=False))
def test_validate_matches_the_oracle_on_relabeled_polyhedra(name, rnd):
    # the copy drops the pyramid's ideal candidate, so its apex then
    # breaks trivalence
    p, moved, _ = relabeled(name, rnd)
    assert validate(p).passed
    _assert_validate_matches_oracle(p)
    _assert_validate_matches_oracle(moved)


def test_face_repeating_a_vertex_parses_and_fails_validate():
    lp = parse_polyhedron(TET.replace("face 0: 0 1 3", "face 0: 0 1 1 3"))
    rules = [v.rule for v in validate(lp.base).violations]
    assert rules == ["repeated-vertex"]


@pytest.mark.parametrize("name,order", [
    ("tetrahedron", 24),
    ("cube_all2", 48),
    ("triangular_prism", 12),
    ("pyramid", 8),
])
def test_automorphism_group_orders(name, order):
    # an integer (|G|, V) array of vertex images, identity first, rows
    # strictly ascending
    p = load(name).base
    images = automorphisms(p)
    assert images.dtype.kind == "i"
    assert images.shape == (order, len(p.vertices))
    rows = images.tolist()
    assert rows[0] == list(p.vertices)
    assert all(a < b for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("name", ["tetrahedron", "pyramid", "triangular_prism"])
def test_automorphisms_match_brute_force(name):
    p = load(name).base
    fast = {tuple(sorted(m.items())) for m in automorphism_maps(p)}
    brute = {tuple(sorted(m.items())) for m in automorphisms_brute(p)}
    assert fast == brute


@pytest.mark.parametrize("n,order", [(5, 120), (6, 24), (7, 28), (8, 32)])
def test_loebell_automorphisms_are_distinct_face_maps(n, order, loebell):
    # L(5) is the dodecahedron; from n = 6 on the group is the dihedral
    # symmetry of the n-gons times the swap of the two n-gons
    p = loebell(n)
    maps = automorphism_maps(p)
    assert len(maps) == order
    assert len({tuple(sorted(m.items())) for m in maps}) == len(maps)
    assert all(_preserves_faces(p, m) for m in maps)


def relabeled(name: str, rnd: random.Random) -> tuple[AbstractPolyhedron, AbstractPolyhedron,
                                                     dict[int, int]]:
    """A corpus polyhedron or L(n), and a copy with its vertex ids
    permuted by sigma, its faces shuffled and each cycle rotated or
    reversed; returns (original, copy, sigma)."""
    p = corpus.loebell(int(name[1:])) if name.startswith("L") else load(name).base
    sigma = dict(zip(p.vertices, rnd.sample(p.vertices, len(p.vertices))))
    faces = []
    for cyc in p.faces:
        r = rnd.randrange(len(cyc))
        cyc = tuple(sigma[v] for v in cyc[r:] + cyc[:r])
        faces.append(cyc[::-1] if rnd.random() < 0.5 else cyc)
    rnd.shuffle(faces)
    return p, AbstractPolyhedron(name=p.name, faces=tuple(faces)), sigma


RELABELED_NAMES = st.sampled_from([*CORPUS, *(f"L{n}" for n in range(3, 9))])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=RELABELED_NAMES, rnd=st.randoms(use_true_random=False))
def test_relabeled_group_is_the_conjugate_group(name, rnd):
    # the group of the relabeled copy is exactly sigma g sigma^-1
    p, moved, sigma = relabeled(name, rnd)
    conjugates = {tuple(sorted((sigma[v], sigma[w]) for v, w in g.items()))
                  for g in automorphism_maps(p)}
    assert sorted(tuple(sorted(m.items())) for m in automorphism_maps(moved)) == sorted(conjugates)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=RELABELED_NAMES, rnd=st.randoms(use_true_random=False))
def test_automorphisms_match_the_oracle_in_order(name, rnd):
    # on a relabeled copy: the exhaustive oracle's maps, sorted by their
    # items; each edge permutation row is the edge image of the map at
    # its position; and candidates pushed through the walk's tree one at
    # a time give the same list
    _, p, _ = relabeled(name, rnd)
    maps = automorphism_maps(p)
    assert maps == sorted(automorphisms_brute(p), key=lambda m: sorted(m.items()))
    perms = _edge_perms(p)
    assert perms.shape == (len(maps), len(p.edges))
    for vmap, perm in zip(maps, perms):
        assert [p.edges[j] for j in perm] == [edge_key(vmap[a], vmap[b]) for a, b in p.edges]
    with mock.patch.object(poly_model, "_AUTOMORPHISM_BLOCK", 1):
        assert automorphism_maps(p) == maps


def test_automorphism_group_closure(cube_all2):
    p = cube_all2.base
    group = {tuple(sorted(m.items())) for m in automorphism_maps(p)}
    maps = [dict(g) for g in group]
    ident = tuple(sorted({v: v for v in p.vertices}.items()))
    assert ident in group
    for a in maps[:8]:
        for b in maps[:8]:
            comp = tuple(sorted({v: a[b[v]] for v in p.vertices}.items()))
            assert comp in group
        inv = tuple(sorted({a[v]: v for v in p.vertices}.items()))
        assert inv in group


def test_automorphisms_permute_edges(lambert_cube):
    p = lambert_cube.base
    perms = _edge_perms(p)
    assert len(perms) == len(automorphisms(p))
    for perm in perms:
        assert sorted(perm.tolist()) == list(range(len(p.edges)))


def test_edge_key_orders_endpoints():
    assert edge_key(3, 1) == (1, 3) == edge_key(1, 3)


def test_labeled_polyhedron_equality(lambert_cube):
    twin = LabeledPolyhedron(base=lambert_cube.base,
                             labels=dict(lambert_cube.labels))
    assert twin == lambert_cube
    assert hash(twin) == hash(lambert_cube)
