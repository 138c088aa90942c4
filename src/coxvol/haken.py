"""Large/small classification via incompressible curves.

A 2-orbifold here is a circuit together with one of the two face sides
it bounds.  A compression is a chord of the curve through the chosen
disk crossing at most one edge, splitting the curve into two arcs that
each cross at least two edges.  A curve with no compression and none of
the trivially-bounding shapes (vertex link, edge link, fewer than three
crossings) is incompressible.

``classify`` scans the (faces, prismatic) records of
``circuits.iter_cycles`` and makes a Circuit object only of a circuit it
tests, or of its witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import (Circuit, DEFAULT_CIRCUIT_CAP, iter_cycles,
                       separating_triangles, vertex_sides)
# unused here, but the benchmark tracer binds coxvol.haken.circuits_up_to by name
from .circuits import circuits_up_to  # noqa: F401
from .poly_model import AbstractPolyhedron, Edge


@dataclass(frozen=True)
class TwoOrbifold:
    curve: Circuit
    disk_vertices: frozenset[int]


@dataclass(frozen=True)
class CompressionArc:
    crossed_edge: Edge
    arc_lengths: tuple[int, int]  # crossed-edge counts of the two curve arcs


def orbifolds_of(p: AbstractPolyhedron, c: Circuit) -> tuple[TwoOrbifold, TwoOrbifold]:
    """The two 2-orbifolds bounded by a circuit (one per side)."""
    side_a, side_b = vertex_sides(p, c)
    return TwoOrbifold(c, side_a), TwoOrbifold(c, side_b)


def find_compressions(p: AbstractPolyhedron, orb: TwoOrbifold) -> list[CompressionArc]:
    """All combinatorial chords of the curve through the disk side.

    In the dual-cycle formulation every face on the curve is visited
    exactly once, so a chord crossing zero edges would pinch off an arc
    crossing no edges at all; only one-edge chords between two curve
    faces can occur.  The chord's edge must lie strictly inside the
    chosen disk (both endpoints on the disk's vertex side).
    """
    c = orb.curve
    k = c.k
    crossed = set(c.crossed_edges)
    out: list[CompressionArc] = []
    for i in range(k):
        for j in range(i + 1, k):
            arc1 = j - i
            arc2 = k - arc1
            if arc1 < 2 or arc2 < 2:
                continue
            g = p.face_adjacency.get((c.faces[i], c.faces[j]))
            if g is None or g in crossed:
                continue
            if g[0] in orb.disk_vertices and g[1] in orb.disk_vertices:
                out.append(CompressionArc(crossed_edge=g, arc_lengths=(arc1, arc2)))
    return out


def base_form(p: AbstractPolyhedron, orb: TwoOrbifold) -> str | None:
    """Trivially-bounding curve shapes, checked on the curve itself.

    Returns a tag ('vertex-link', 'edge-link') or None.
    A face-boundary curve crosses no edges at all and cannot arise as a
    dual cycle, so it needs no check here.  Vertex and edge links are
    curves whose smaller side encloses just one vertex or one edge; both
    bound an obvious disk regardless of which side is chosen, so both
    sides are read off the orbifold: its disk and the complement.
    """
    # crossed edges that all meet at one vertex cut that vertex off, so
    # that case is a one-vertex side
    for side in (orb.disk_vertices, set(p.vertices) - orb.disk_vertices):
        if len(side) == 1:
            return "vertex-link"
        if len(side) == 2:
            a, b = sorted(side)
            if (a, b) in p.edge_faces:
                return "edge-link"
    return None


def is_compressible(p: AbstractPolyhedron, orb: TwoOrbifold) -> bool:
    return base_form(p, orb) is not None or bool(find_compressions(p, orb))


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
    """Large iff no separating triangles and some orbifold up to the cap
    is incompressible; ValueError if cap < 3.

    The witness is the first circuit with an incompressible side in the
    order prismatic first, then the rest, each by length and then by
    faces, so that it is the most meaningful curve available.  A first
    pass iterates the cycle records one length at a time, counts every
    one it visits, and builds and tests only the prismatic ones, stopping
    at the first witness, inside its length: the rest of that length is
    never enumerated.  Only if it finds none does a second pass iterate
    them again, from the records the first pass left stored on ``p``,
    for the first non-prismatic witness, counting nothing more.  A Small
    verdict still tests both disk sides of every circuit up to the cap.
    """
    if cap < 3:
        raise ValueError(f"circuit cap must be >= 3, got {cap}")
    tris = separating_triangles(p)
    if tris:
        return HakenVerdict(SMALL, tris[0], "separating-triangle", cap, 0)

    def witness(faces: tuple[int, ...], prismatic: bool) -> Circuit | None:
        c = Circuit.from_faces(p, faces, prismatic)
        return None if all(is_compressible(p, orb) for orb in orbifolds_of(p, c)) else c

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
