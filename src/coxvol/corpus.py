"""Access to the bundled example polyhedra and the Loebell family L(n)."""

from __future__ import annotations

from importlib import resources

from .poly_model import AbstractPolyhedron, LabeledPolyhedron, parse_polyhedron

CORPUS = ("tetrahedron", "cube_all2", "lambert_cube", "triangular_prism", "pyramid")


def corpus_text(name: str) -> str:
    if name not in CORPUS:
        raise KeyError(f"unknown corpus polyhedron {name!r}; have {CORPUS}")
    return resources.files("coxvol.data").joinpath(f"{name}.apoly").read_text()


def load(name: str) -> LabeledPolyhedron:
    return parse_polyhedron(corpus_text(name))


def loebell(n: int) -> AbstractPolyhedron:
    """The Loebell polyhedron L(n): an n-gon, a ring of 2n pentagons, and
    a second n-gon (V = 4n, E = 6n, F = 2n + 2).

    Vertex layers: top t_i, upper u_i, lower w_i, bottom s_i; u_i meets
    w_{i-1} and w_i, so the middle edges zigzag between the two rings.
    Right-angled L(n) is realizable for n >= 5; L(5) is the dodecahedron.
    """
    if n < 3:
        raise ValueError("L(n) needs n >= 3")
    t, u, w, s = (lambda i, k=k: k * n + i % n for k in range(4))
    faces = [tuple(t(i) for i in range(n))]
    faces += [(t(i), t(i + 1), u(i + 1), w(i), u(i)) for i in range(n)]
    faces += [(w(i), u(i + 1), w(i + 1), s(i + 1), s(i)) for i in range(n)]
    faces.append(tuple(s(i) for i in reversed(range(n))))
    return AbstractPolyhedron(name=f"L{n}", faces=tuple(faces))
