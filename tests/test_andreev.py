"""Exact admissibility conditions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvol import andreev
from coxvol.corpus import CORPUS, load, loebell
from coxvol.poly_model import AbstractPolyhedron, LabeledPolyhedron


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
    assert andreev.check(lp2).vertex_types[3] == expected


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


def test_default_regime_follows_ideal_candidates(pyramid, lambert_cube):
    assert andreev.default_regime(pyramid.base) == andreev.ALLOW_IDEAL
    assert andreev.default_regime(lambert_cube.base) == andreev.STRICT_COMPACT


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
    from coxvol.census import _edge_perms

    p = lambert_cube.base
    for perm in _edge_perms(p)[:12]:
        labels = {p.edges[j]: lambert_cube.labels[e] for e, j in zip(p.edges, perm)}
        report = andreev.check(LabeledPolyhedron(base=p, labels=labels))
        assert report.outcome == "realizable-compact"


def test_unknown_regime_raises(lambert_cube):
    with pytest.raises(ValueError):
        andreev.check(lambert_cube, "compact-ish")


# ---------------------------------------------------------------------------
# check against a per-row Fraction oracle


def check_oracle(lp: LabeledPolyhedron, regime: str) -> andreev.AndreevReport:
    """``check`` evaluated row by row in Fractions: each row's
    ``angle_sum`` in units of pi, vertex kinds by ``vertex_kind`` against
    the row's bound."""
    allow_ideal = andreev.allows_ideal(regime)
    p = lp.base
    sums = [(row, row.angle_sum(lp.labels)) for row in andreev.constraints(p)]
    vertices = [(row.witness, s) for row, s in sums if row.condition == andreev.VERTEX]
    vtypes = {row.witness: andreev.vertex_kind(s, row.bound)
              for row, s in sums if row.condition == andreev.VERTEX}
    if len(p.faces) < andreev.MIN_FACES:
        return andreev.AndreevReport(outcome="rejected", regime=regime, conditions=(),
                                     vertex_types=vtypes, reason=andreev.FACE_COUNT_TOO_SMALL)
    conditions = [andreev.ConditionResult(1, True, False, (),
                                          note="automatic: labels >= 2 give 0 < angle <= pi/2")]
    fails = [w for w in vertices if vtypes[w[0]] == andreev.INADMISSIBLE]
    if not allow_ideal:
        fails += [w for w in vertices if vtypes[w[0]] == andreev.IDEAL]
    conditions.append(andreev.ConditionResult(2, not fails, False, tuple(fails)))
    for cond in (3, 4, 5):
        rows = [(row, s) for row, s in sums if row.condition == cond]
        fails = [(*row.witness, s) if cond == 5 else (row.witness, s)
                 for row, s in rows if not s < row.bound]
        note = f"vacuous: no prismatic {cond}-circuits" if cond < 5 and not rows else ""
        conditions.append(andreev.ConditionResult(cond, not fails, cond == 5 and len(p.faces) > 5,
                                                  tuple(fails), note=note))
    failed = [c.condition for c in conditions if not c.passed and not c.informational]
    outcome = "rejected" if failed else andreev.admissible_outcome(
        andreev.IDEAL in vtypes.values())
    return andreev.AndreevReport(outcome=outcome, regime=regime, conditions=tuple(conditions),
                                 vertex_types=vtypes,
                                 reason=f"condition {failed[0]}" if failed else "")


def _relabeled_loebell(n: int) -> AbstractPolyhedron:
    """L(n) with its vertex ids scattered, its faces shuffled and each
    cycle rotated or reversed, all-right-angled."""
    p, rnd = loebell(n), random.Random(n)
    sigma = dict(zip(p.vertices, rnd.sample(range(10 * len(p.vertices)), len(p.vertices))))
    faces = []
    for cyc in p.faces:
        r = rnd.randrange(len(cyc))
        cyc = tuple(sigma[v] for v in cyc[r:] + cyc[:r])
        faces.append(cyc[::-1] if rnd.random() < 0.5 else cyc)
    rnd.shuffle(faces)
    return AbstractPolyhedron(name=p.name, faces=tuple(faces))


# Labels come from 2..12 and the prime 97, so U, the lcm of the labels
# on the table, reaches the millions.  The corpus keeps its own labels
# as seeds (the tetrahedron is rejected on its face count; the prism and
# the pyramid have five faces, so condition 5 decides), and so do the
# prism with both quadrilateral branches at 3*pi and the cube with every
# vertex ideal (2 on a perfect matching, 4 elsewhere); L(5..9) start
# right-angled.
_LABELS = (*range(2, 13), 97)
_PRISM = load("triangular_prism").base
_CUBE = load("cube_all2").base
_SEEDS = [load(name) for name in CORPUS] + [
    LabeledPolyhedron(base=_PRISM, labels={e: 4 if e in {(0, 3), (1, 4), (2, 5)} else 2
                                           for e in _PRISM.edges}),
    LabeledPolyhedron(base=_CUBE, labels={e: 2 if e in {(0, 1), (2, 3), (4, 7), (5, 6)} else 4
                                          for e in _CUBE.edges}),
] + [LabeledPolyhedron(base=b, labels=dict.fromkeys(b.edges, 2))
     for b in map(_relabeled_loebell, range(5, 10))]


@st.composite
def labelings(draw):
    """A seed with up to four labels redrawn, or one time in four with
    every label drawn."""
    lp = draw(st.sampled_from(_SEEDS))
    edges = lp.base.edges
    if draw(st.integers(0, 3)) == 0:
        rnd = draw(st.randoms(use_true_random=False))
        labels = {e: rnd.choice(_LABELS) for e in edges}
    else:
        labels = {**lp.labels, **draw(st.dictionaries(st.sampled_from(edges),
                                                      st.sampled_from(_LABELS), max_size=4))}
    return LabeledPolyhedron(base=lp.base, labels=labels)


def _assert_matches_oracle(lp, regime):
    report, expected = andreev.check(lp, regime), check_oracle(lp, regime)
    assert report == expected
    assert repr(report) == repr(expected)  # Fraction sums, not ints equal to them


@settings(max_examples=250, deadline=None, derandomize=True)
@given(lp=labelings(), regime=st.sampled_from(andreev.REGIMES))
def test_check_matches_the_fraction_oracle(lp, regime):
    _assert_matches_oracle(lp, regime)


@pytest.mark.parametrize("name, changes, regime, reason", [
    ("tetrahedron", {}, andreev.STRICT_COMPACT, andreev.FACE_COUNT_TOO_SMALL),
    ("tetrahedron", {(0, 3): 97}, andreev.ALLOW_IDEAL, andreev.FACE_COUNT_TOO_SMALL),
    ("triangular_prism", {(0, 1): 2, (1, 2): 2, (0, 2): 2, (3, 4): 2, (4, 5): 2, (3, 5): 2,
                          (0, 3): 4, (1, 4): 4, (2, 5): 4},
     andreev.STRICT_COMPACT, "condition 5"),
    ("pyramid", {(2, 3): 2, (0, 3): 2}, andreev.ALLOW_IDEAL, "condition 5"),
    ("pyramid", {(2, 3): 2, (0, 3): 2, (1, 2): 97}, andreev.ALLOW_IDEAL, "condition 5"),
])
def test_check_matches_the_oracle_where_it_decides(name, changes, regime, reason):
    # the face-count return, and condition 5 deciding on five faces, with
    # a sum at its bound and one with a 97 in its lcm
    lp = load(name)
    lp = LabeledPolyhedron(base=lp.base, labels={**lp.labels, **changes})
    _assert_matches_oracle(lp, regime)
    assert andreev.check(lp, regime).reason == reason
