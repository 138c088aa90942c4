"""Every input refusal of the library and the CLI: the raise sites no
other test reaches, one case each."""

import math

import pytest

from coxvol import andreev, corpus
from coxvol.census import enumerate_labelings, pyramid_census
from coxvol.cli import main
from coxvol.lobachevsky import ideal_tetrahedron_volume, lob
from coxvol.poly_model import (AbstractPolyhedron, LabeledPolyhedron, PolyhedronError,
                               edge_key, parse_polyhedron)
from coxvol.volume import schlafli_volume

DIHEDRON = "polyhedron dihedron\nface 0: 0 1 2\nface 1: 0 2 1\n"


def relabeled(label):
    """The all-2 cube with its first edge's label set to ``label``, or
    dropped when ``label`` is None."""
    lp = corpus.load("cube_all2")
    labels = dict(lp.labels)
    first = lp.base.edges[0]
    if label is None:
        del labels[first]
    else:
        labels[first] = label
    return LabeledPolyhedron(base=lp.base, labels=labels)


def pentagonal_pyramid():
    rim = tuple((i, (i + 1) % 5, 5) for i in range(5))
    return AbstractPolyhedron("pentagonal_pyramid", faces=((4, 3, 2, 1, 0), *rim),
                              ideal_candidates=frozenset({5}))


@pytest.mark.parametrize("call,error,message", [
    (lambda: enumerate_labelings(corpus.load("cube_all2").base, 1),
     ValueError, "max_label must be >= 2"),
    (lambda: enumerate_labelings(parse_polyhedron(DIHEDRON).base, 3),
     ValueError, "fails validation"),
    (lambda: pyramid_census(2), ValueError, "max_label must be >= 3"),
    (lambda: pyramid_census(4, convention="nope"), ValueError, "unknown convention"),
    (lambda: corpus.load("nope"), KeyError, "unknown corpus polyhedron"),
    (lambda: corpus.loebell(2), ValueError, "n >= 3"),
    (lambda: lob(math.inf), ValueError, "finite angle"),
    (lambda: lob(math.nan), ValueError, "finite angle"),
    (lambda: ideal_tetrahedron_volume(-0.1, math.pi / 2, math.pi / 2 + 0.1),
     ValueError, "nonnegative"),
    (lambda: edge_key(3, 3), ValueError, "degenerate edge"),
    (lambda: relabeled(None), PolyhedronError, "has no label"),
    (lambda: relabeled(1), PolyhedronError, "label 1 < 2"),
    (lambda: andreev.constraints(AbstractPolyhedron("pyramid", corpus.load("pyramid").base.faces)),
     ValueError, "4-valent but not an ideal candidate"),
    (lambda: andreev.constraints(pentagonal_pyramid()), ValueError, "valence 5"),
    (lambda: schlafli_volume(corpus.load("lambert_cube"), tol=-1e-8),
     ValueError, "tol must be positive"),
], ids=["census-max-label", "census-invalid", "pyramid-max-label", "pyramid-convention",
        "corpus-name", "loebell-n", "lob-inf", "lob-nan", "idealtet-negative", "edge-key",
        "missing-label", "label-one", "unflagged-apex", "five-valent", "volume-tol"])
def test_library_refuses(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("argv", [
    ("lob", "pi*2"), ("lob", "inf"),
    ("census", "cube_all2", "--max-label", "1"), ("pyramid-table", "--max-label", "2"),
    ("volume", "lambert_cube", "--tol", "0"), ("volume", "lambert_cube", "--tol", "nan")])
def test_cli_refuses(capsys, argv):
    assert main(list(argv)) == 2
    assert capsys.readouterr().out.strip().splitlines()[-1] == f"RESULT {argv[0]} input-error"


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: coxvol" in capsys.readouterr().out
