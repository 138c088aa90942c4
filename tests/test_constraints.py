"""The admissibility constraint table and its three evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxvol import andreev
from coxvol.census import _admissible_mask, _ideal_counts, _units
from coxvol.corpus import load, loebell
from coxvol.poly_model import LabeledPolyhedron

MAX_LABEL = 7


@pytest.mark.parametrize("name, rows", [
    # vertices, prismatic 3- and 4-circuits, two branches per quadrilateral face
    ("cube_all2", 8 + 0 + 3 + 2 * 6),
    ("triangular_prism", 6 + 1 + 0 + 2 * 3),
    ("pyramid", 5 + 0 + 0 + 2 * 1),
])
def test_table_rows(name, rows):
    p = load(name).base
    table = andreev.constraints(p)
    assert len(table) == rows
    assert andreev.constraints(p) is table  # compiled once per polyhedron
    for row in table:
        assert row.informational == (row.condition == 5 and len(p.faces) > 5)
        if row.condition == andreev.VERTEX:
            assert row.bound == len(row.edges) - 2


def test_ideal_apex_row_needs_all_twos(pyramid):
    # the 4-valent apex has no special case: its row is ideal exactly
    # when all four labels are 2, because every label is at least 2
    apex = next(r for r in andreev.constraints(pyramid.base) if r.witness == 4)
    assert apex.bound == 2 and len(apex.edges) == 4
    labels = dict(pyramid.labels)
    assert andreev.vertex_kind(apex.angle_sum(labels), apex.bound) == andreev.IDEAL
    labels[apex.edges[0]] = 3
    assert andreev.vertex_kind(apex.angle_sum(labels), apex.bound) == andreev.INADMISSIBLE


# Labelings are drawn around a realizable one: with uniform labels
# nearly every draw fails at some vertex and never reaches the circuit
# and face boundaries.  The cube starts from the Lambert labeling, and
# once more from a labeling with every vertex ideal: 2 on a perfect
# matching and 4 elsewhere, so each vertex sums to exactly pi.  The
# tetrahedron has too few faces, so both evaluators reject all its draws.
# Right-angled L(5), the dodecahedron, has vertex rows only (no prismatic
# 3- or 4-circuits, no quadrilaterals) over 30 edges.
_CUBE = load("cube_all2").base
_MATCHING = {(0, 1), (2, 3), (4, 7), (5, 6)}
_SEEDS = [LabeledPolyhedron(base=_CUBE, labels=load("lambert_cube").labels),
          LabeledPolyhedron(base=_CUBE, labels={e: 2 if e in _MATCHING else 4 for e in _CUBE.edges}),
          load("triangular_prism"), load("pyramid"), load("tetrahedron"),
          LabeledPolyhedron(base=loebell(5), labels=dict.fromkeys(loebell(5).edges, 2))]


@st.composite
def labelings(draw):
    """A seed labeling with up to four labels redrawn from 2..7."""
    lp = draw(st.sampled_from(_SEEDS))
    redrawn = draw(st.dictionaries(st.sampled_from(lp.base.edges),
                                   st.integers(2, MAX_LABEL), max_size=4))
    return LabeledPolyhedron(base=lp.base, labels={**lp.labels, **redrawn})


@settings(max_examples=500, deadline=None, derandomize=True)
@given(lp=labelings(), regime=st.sampled_from(andreev.REGIMES))
def test_exact_and_vectorized_evaluators_agree(lp, regime):
    p = lp.base
    report = andreev.check(lp, regime)
    row = np.array([[lp.labels[e] for e in p.edges]], dtype=np.int64)
    assert bool(_admissible_mask(p, row, MAX_LABEL, regime)[0]) == report.realizable
    if report.realizable:
        # the census's vertex-kind pass on the one admissible row
        n_ideal = int(_ideal_counts(p, row - 2, _units(andreev.constraints(p), MAX_LABEL))[0])
        assert n_ideal == list(report.vertex_types.values()).count(andreev.IDEAL)
        assert andreev.admissible_outcome(n_ideal > 0) == report.outcome
