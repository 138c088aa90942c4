"""Large/small classification via incompressible curves.

A 2-orbifold here is a circuit together with one of the two face sides
it bounds.  A compression is a chord of the curve through the chosen
disk crossing at most one edge, splitting the curve into two arcs that
each cross at least two edges.  A curve with no compression and none of
the trivially-bounding shapes (vertex link, edge link, fewer than three
crossings) is incompressible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import (Circuit, DEFAULT_CIRCUIT_CAP, circuits_up_to,
                       separating_triangles, vertex_sides)
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
            g = p.shared_edge(c.faces[i], c.faces[j])
            if g is None or g in crossed:
                continue
            if g[0] in orb.disk_vertices and g[1] in orb.disk_vertices:
                out.append(CompressionArc(crossed_edge=g, arc_lengths=(arc1, arc2)))
    return out


def base_form(p: AbstractPolyhedron, orb: TwoOrbifold) -> str | None:
    """Trivially-bounding curve shapes, checked on the curve itself.

    Returns a tag ('short-curve', 'vertex-link', 'edge-link') or None.
    A face-boundary curve crosses no edges at all and cannot arise as a
    dual cycle, so it needs no check here.  Vertex and edge links are
    curves whose smaller side encloses just one vertex or one edge; both
    bound an obvious disk regardless of which side is chosen.
    """
    c = orb.curve
    if c.k < 3:
        return "short-curve"
    # crossed edges that all meet at one vertex cut that vertex off, so
    # that case is a one-vertex side
    for side in vertex_sides(p, c):
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


def classify(p: AbstractPolyhedron, cap: int = DEFAULT_CIRCUIT_CAP) -> HakenVerdict:
    """Large iff no separating triangles and some orbifold up to the cap
    is incompressible.

    Prismatic circuits are scanned first (ordered by length) so that the
    reported witness is the most meaningful curve available; the search
    over both disk sides of every circuit is exhaustive up to the cap.
    """
    tris = separating_triangles(p)
    if tris:
        return HakenVerdict(SMALL, tris[0], "separating-triangle", cap)
    # circuits_up_to orders by k, then faces; a stable sort puts the
    # prismatic ones first and keeps that order within each group
    circuits = circuits_up_to(p, cap)
    circuits.sort(key=lambda c: not c.prismatic)
    for c in circuits:
        for orb in orbifolds_of(p, c):
            if not is_compressible(p, orb):
                return HakenVerdict(LARGE, c, "incompressible-orbifold", cap)
    return HakenVerdict(SMALL, None, "none-up-to-cap", cap)
