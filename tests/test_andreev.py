"""Exact admissibility conditions."""

from fractions import Fraction

import pytest

from coxvol import andreev
from coxvol.poly_model import LabeledPolyhedron


@pytest.mark.parametrize("triple,expected", [
    ((2, 2, 2), andreev.COMPACT),
    ((2, 2, 7), andreev.COMPACT),   # 1/2+1/2+1/7 > 1
    ((2, 3, 3), andreev.COMPACT),
    ((2, 3, 4), andreev.COMPACT),
    ((2, 3, 5), andreev.COMPACT),
    ((2, 3, 6), andreev.IDEAL),     # 1/2+1/3+1/6 = 1
    ((3, 3, 3), andreev.IDEAL),
    ((2, 4, 4), andreev.IDEAL),
    ((2, 3, 7), andreev.INADMISSIBLE),
    ((3, 3, 4), andreev.INADMISSIBLE),
])
def test_vertex_triples(tetrahedron, triple, expected):
    # vertex 3 of the tetrahedron touches edges (0,3), (1,3), (2,3)
    lp = tetrahedron
    labels = dict(lp.labels)
    for e, n in zip(((0, 3), (1, 3), (2, 3)), triple):
        labels[e] = n
    lp2 = LabeledPolyhedron(base=lp.base, labels=labels)
    assert andreev.vertex_type(lp2, 3) == expected


def test_tetrahedron_rejected_for_face_count(tetrahedron):
    report = andreev.check(tetrahedron)
    assert report.outcome == "rejected"
    assert report.reason == andreev.FACE_COUNT_TOO_SMALL


def test_cube_all_twos_rejected_by_circuit_condition(cube_all2):
    report = andreev.check(cube_all2)
    assert report.outcome == "rejected"
    c4 = report.conditions[3]
    assert c4.condition == 4 and not c4.passed
    assert len(c4.witnesses) == 3
    for circuit, s in c4.witnesses:
        assert circuit.prismatic and circuit.k == 4
        assert s == Fraction(2)  # 4 right angles


def test_lambert_cube_realizable_compact(lambert_cube):
    report = andreev.check(lambert_cube)
    assert report.outcome == "realizable-compact"
    assert report.realizable
    assert all(t == andreev.COMPACT for t in report.vertex_types.values())


def test_prism_realizable_compact(triangular_prism):
    report = andreev.check(triangular_prism)
    assert report.outcome == "realizable-compact"
    # condition 5 is decisive for a five-faced polyhedron
    c5 = report.conditions[4]
    assert not c5.informational


def test_prism_condition5_rejection(triangular_prism):
    # all-2 quads with all-2 triangles: both branch sums hit 3*pi exactly
    labels = {e: 2 for e in triangular_prism.base.edges}
    labels[(0, 3)] = labels[(1, 4)] = labels[(2, 5)] = 4  # keep the 3-circuit fine
    lp = LabeledPolyhedron(base=triangular_prism.base, labels=labels)
    report = andreev.check(lp)
    assert report.outcome == "rejected"
    assert report.reason == "condition 5"


def test_prism_triangle_circuit_rejection(triangular_prism):
    # all-2 lateral edges: the prismatic 3-circuit sums to 3*pi/2 >= pi
    labels = dict(triangular_prism.labels)
    labels[(0, 3)] = labels[(1, 4)] = labels[(2, 5)] = 2
    lp = LabeledPolyhedron(base=triangular_prism.base, labels=labels)
    report = andreev.check(lp)
    assert report.outcome == "rejected"
    assert report.reason == "condition 3"


def test_pyramid_regimes(pyramid):
    strict = andreev.check(pyramid, andreev.STRICT_COMPACT)
    relaxed = andreev.check(pyramid, andreev.ALLOW_IDEAL)
    assert strict.outcome == "rejected"
    assert relaxed.outcome == "realizable-with-ideal-vertices"
    assert relaxed.vertex_types[4] == andreev.IDEAL
    assert all(relaxed.vertex_types[v] == andreev.COMPACT for v in range(4))


def test_pyramid_condition5_exact_boundary(pyramid):
    # opposite base labels (2, 2): pair sum pi plus four right apex angles
    # reaches 3*pi exactly, which must reject
    labels = dict(pyramid.labels)
    labels[(2, 3)] = 2
    labels[(0, 3)] = 2
    lp = LabeledPolyhedron(base=pyramid.base, labels=labels)
    report = andreev.check(lp, andreev.ALLOW_IDEAL)
    assert report.outcome == "rejected"
    assert report.reason == "condition 5"


def test_condition5_informational_for_larger_polyhedra(cube_all2, lambert_cube):
    for lp in (cube_all2, lambert_cube):
        report = andreev.check(lp)
        assert report.conditions[4].informational


def test_raising_labels_never_helps_rejected_circuits(cube_all2):
    # pushing any label of an all-2 cube higher shrinks angles, so the
    # failing prismatic 4-circuits keep failing
    base = cube_all2.base
    for e in base.edges:
        labels = dict(cube_all2.labels)
        labels[e] = 5
        report = andreev.check(LabeledPolyhedron(base=base, labels=labels))
        assert report.outcome == "rejected"


def test_check_is_automorphism_invariant(lambert_cube):
    from coxvol.poly_model import apply_automorphism_to_edges, automorphisms

    p = lambert_cube.base
    for vmap in automorphisms(p)[:12]:
        emap = apply_automorphism_to_edges(p, vmap)
        labels = {emap[e]: n for e, n in lambert_cube.labels.items()}
        report = andreev.check(LabeledPolyhedron(base=p, labels=labels))
        assert report.outcome == "realizable-compact"


def test_unknown_regime_raises(lambert_cube):
    with pytest.raises(ValueError):
        andreev.check(lambert_cube, "compact-ish")
