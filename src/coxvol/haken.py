"""Large/small classification via incompressible curves.

A circuit's crossed edges cut the vertices into two sides, one per disk
of the curve (``circuits.vertex_sides``).  A side is compressible when
either side has at most two vertices (the curve is a vertex or edge
link), or when it holds an end of a chord: an edge joining two curve
faces that are not consecutive, which splits the curve into two arcs
each crossing at least two edges.  A circuit with an incompressible
side witnesses Large.  ``classify`` scans the (faces, prismatic) records
of ``circuits.iter_cycles`` and makes a Circuit object only of a circuit
it tests, or of its witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import (Circuit, DEFAULT_CIRCUIT_CAP, iter_cycles,
                       separating_triangles, vertex_sides)
# unused here, but the benchmark tracer binds coxvol.haken.circuits_up_to by name
from .circuits import circuits_up_to  # noqa: F401
from .poly_model import AbstractPolyhedron


def is_compressible(p: AbstractPolyhedron, c: Circuit, side: frozenset[int],
                    other: frozenset[int]) -> bool:
    """Whether the disk of ``c`` on the vertex side ``side`` compresses;
    ``other`` is the other side, the two as ``vertex_sides`` splits them.
    Three facts make more checks redundant.  A side of two vertices is
    an edge, since a side is a connected component of the graph left
    once the crossed edges are cut.  A chord has both ends on one side,
    since it is never a crossed edge: every edge lies in exactly two
    faces, and a crossed edge lies in two consecutive curve faces.  And
    the loop bounds skip the consecutive face pairs, so both arcs of a
    chord cross at least two edges.
    """
    if len(side) <= 2 or len(other) <= 2:
        return True
    faces, k = c.faces, c.k
    for i in range(k):
        for j in range(i + 2, k - (i == 0)):
            g = p.face_adjacency.get((faces[i], faces[j]))
            if g is not None and g[0] in side:
                return True
    return False


LARGE = "Large"
SMALL = "Small"


@dataclass(frozen=True)
class HakenVerdict:
    verdict: str
    witness: Circuit | None
    witness_kind: str  # incompressible-orbifold | separating-triangle | none-up-to-cap
    cap: int
    circuits: int  # circuits the scan visited; 0 when a separating triangle decides


def classify(p: AbstractPolyhedron, cap: int = DEFAULT_CIRCUIT_CAP) -> HakenVerdict:
    """Large iff no separating triangles and some circuit up to the cap
    has an incompressible side; ValueError if cap < 3.  ``p`` has every
    edge in exactly two faces, as ``parse_polyhedron`` guarantees.

    The witness is the first circuit with an incompressible side in the
    order prismatic first, then the rest, each by length and then by
    faces, so that it is the most meaningful curve available.  A first
    pass iterates the cycle records one length at a time, counts every
    one it visits, and builds and tests only the prismatic ones, stopping
    at the first witness, inside its length: the rest of that length is
    never enumerated.  Only if it finds none does a second pass iterate
    them again, from the records the first pass left stored on ``p``,
    for the first non-prismatic witness, counting nothing more.  A tested
    circuit is split into its sides once; its second side is tested only
    when the first compresses, so a Small verdict tests both sides of
    every circuit up to the cap.
    """
    if cap < 3:
        raise ValueError(f"circuit cap must be >= 3, got {cap}")
    if tris := separating_triangles(p):
        return HakenVerdict(SMALL, tris[0], "separating-triangle", cap, 0)

    def witness(faces: tuple[int, ...], prismatic: bool) -> Circuit | None:
        c = Circuit.from_faces(p, faces, prismatic)
        a, b = vertex_sides(p, c)
        return None if is_compressible(p, c, a, b) and is_compressible(p, c, b, a) else c

    lengths = range(3, min(cap, len(p.faces)) + 1)
    visited = 0
    for k in lengths:
        for faces, prismatic in iter_cycles(p, k):
            visited += 1
            if prismatic and (c := witness(faces, True)):
                return HakenVerdict(LARGE, c, "incompressible-orbifold", cap, visited)
    for k in lengths:
        for faces, prismatic in iter_cycles(p, k):
            if not prismatic and (c := witness(faces, False)):
                return HakenVerdict(LARGE, c, "incompressible-orbifold", cap, visited)
    return HakenVerdict(SMALL, None, "none-up-to-cap", cap, visited)
