"""Seeded input generators for the benchmark workloads.

Inputs are written as ``.apoly`` text by this module, so each op starts
from the same text a user would hand the command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Faces = list[tuple[int, ...]]
Labels = dict[tuple[int, int], int]


@dataclass(frozen=True)
class Shape:
    """A labeled polyhedron as face cycles, edge labels and an outer face."""

    name: str
    faces: Faces
    labels: Labels
    outer: int | None = None

    @property
    def counts(self) -> tuple[int, int, int]:
        verts = {v for f in self.faces for v in f}
        edges = {_edge(f[i], f[(i + 1) % len(f)]) for f in self.faces for i in range(len(f))}
        return len(verts), len(edges), len(self.faces)

    def text(self) -> str:
        lines = [f"polyhedron {self.name}"]
        for fid, cyc in enumerate(self.faces):
            tail = " outer" if fid == self.outer else ""
            lines.append(f"face {fid}: " + " ".join(map(str, cyc)) + tail)
        lines += [f"label {a} {b} {n}" for (a, b), n in sorted(self.labels.items())]
        return "\n".join(lines) + "\n"


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def loebell(n: int) -> Shape:
    """The right-angled Loebell polyhedron L(n): an n-gon, a ring of 2n
    pentagons, and a second n-gon (V=4n, E=6n, F=2n+2).

    Vertex layers: top t_i, upper u_i, lower w_i, bottom s_i; u_i meets
    w_{i-1} and w_i, so the middle edges zigzag between the two rings.
    """
    if n < 3:
        raise ValueError("L(n) needs n >= 3")
    t, u, w, s = (lambda i, k=k: k * n + i % n for k in range(4))
    faces: Faces = [tuple(t(i) for i in range(n))]
    faces += [(t(i), t(i + 1), u(i + 1), w(i), u(i)) for i in range(n)]
    faces += [(w(i), u(i + 1), w(i + 1), s(i + 1), s(i)) for i in range(n)]
    faces.append(tuple(s(i) for i in reversed(range(n))))
    labels = {_edge(f[i], f[(i + 1) % len(f)]): 2 for f in faces for i in range(len(f))}
    return Shape(f"loebell_{n}", faces, labels, outer=len(faces) - 1)


def relabel(shape: Shape, rng: random.Random) -> Shape:
    """Permute vertex ids and face order, and rotate every face cycle."""
    verts = sorted({v for f in shape.faces for v in f})
    image = dict(zip(verts, rng.sample(verts, len(verts))))
    order = list(range(len(shape.faces)))
    rng.shuffle(order)
    faces = []
    for fid in order:
        cyc = [image[v] for v in shape.faces[fid]]
        k = rng.randrange(len(cyc))
        faces.append(tuple(cyc[k:] + cyc[:k]))
    labels = {_edge(image[a], image[b]): n for (a, b), n in shape.labels.items()}
    outer = order.index(shape.outer) if shape.outer is not None else None
    return Shape(shape.name, faces, labels, outer)


def from_coxvol(lp) -> Shape:
    """Shape of a parsed ``coxvol`` polyhedron (e.g. a bundled example)."""
    p = lp.base
    return Shape(p.name, list(p.faces), dict(lp.labels), p.outer_face)


LAMBERT_BAND_EDGES = ((0, 1), (2, 6), (4, 7))
LAMBERT_LABELS = range(3, 9)


def lambert(cube: Shape, lmn: tuple[int, int, int]) -> Shape:
    """The bundled Lambert cube with its three band edges relabeled."""
    labels = dict(cube.labels)
    for e, n in zip(LAMBERT_BAND_EDGES, lmn):
        if labels.get(e) is None:
            raise ValueError(f"edge {e} is not an edge of {cube.name}")
        labels[e] = n
    return Shape("lambert_%d_%d_%d" % lmn, cube.faces, labels, cube.outer)
