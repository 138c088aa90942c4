"""Combinatorial model: parsing, validation, automorphisms."""

import math
from itertools import permutations

import pytest

from coxvol.corpus import CORPUS, corpus_text, load
from coxvol.poly_model import (AbstractPolyhedron, LabeledPolyhedron, ParseError,
                               _preserves_faces, apply_automorphism_to_edges,
                               automorphisms, edge_key, parse_polyhedron,
                               serialize_polyhedron, validate)


def automorphisms_brute(p: AbstractPolyhedron) -> list[dict[int, int]]:
    """Exhaustive oracle: try every vertex bijection."""
    verts = p.vertices
    return [vmap for vmap in (dict(zip(verts, perm)) for perm in permutations(verts))
            if _preserves_faces(p, vmap)]


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


def test_validate_flags_low_face_count():
    p = AbstractPolyhedron(name="tri", faces=((0, 1, 2), (2, 1, 0)),
                           outer_face=1, ideal_candidates=frozenset())
    rules = {v.rule for v in validate(p).violations}
    assert "face-count" in rules


@pytest.mark.parametrize("name,order", [
    ("tetrahedron", 24),
    ("cube_all2", 48),
    ("triangular_prism", 12),
    ("pyramid", 8),
])
def test_automorphism_group_orders(name, order):
    p = load(name).base
    assert len(automorphisms(p)) == order


@pytest.mark.parametrize("name", ["tetrahedron", "pyramid", "triangular_prism"])
def test_automorphisms_match_brute_force(name):
    p = load(name).base
    fast = {tuple(sorted(m.items())) for m in automorphisms(p)}
    brute = {tuple(sorted(m.items())) for m in automorphisms_brute(p)}
    assert fast == brute


def test_automorphism_group_closure(cube_all2):
    p = cube_all2.base
    group = {tuple(sorted(m.items())) for m in automorphisms(p)}
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
    edges = set(p.edges)
    for vmap in automorphisms(p):
        emap = apply_automorphism_to_edges(p, vmap)
        assert set(emap.values()) == edges


def test_edge_key_orders_endpoints():
    assert edge_key(3, 1) == (1, 3) == edge_key(1, 3)


def test_labeled_polyhedron_equality(lambert_cube):
    twin = LabeledPolyhedron(base=lambert_cube.base,
                             labels=dict(lambert_cube.labels))
    assert twin == lambert_cube
    assert hash(twin) == hash(lambert_cube)
