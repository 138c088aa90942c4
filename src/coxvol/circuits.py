"""Enumeration of k-circuits as cycles in the face-adjacency (dual) graph.

A k-circuit is a simple closed curve crossing k edges; in the dual
picture it is a cycle of k distinct faces, consecutive ones adjacent,
with the crossed edge recorded for each step.  A circuit is prismatic
when the 2k endpoints of the crossed edges are pairwise distinct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly_model import AbstractPolyhedron, Edge, canonical_cycle

DEFAULT_CIRCUIT_CAP = 12


@dataclass(frozen=True)
class Circuit:
    faces: tuple[int, ...]
    crossed_edges: tuple[Edge, ...]
    prismatic: bool

    @property
    def k(self) -> int:
        return len(self.faces)

    def format_line(self) -> str:
        fs = ",".join(str(f) for f in self.faces)
        es = ",".join(f"({a},{b})" for a, b in self.crossed_edges)
        return f"circuit k={self.k} prismatic={self.prismatic} faces={fs} edges={es}"


def _build_circuit(p: AbstractPolyhedron, faces: tuple[int, ...]) -> Circuit:
    faces = canonical_cycle(faces)
    k = len(faces)
    edges = tuple(p.face_adjacency[(faces[i], faces[(i + 1) % k])] for i in range(k))
    ends = [v for e in edges for v in e]
    return Circuit(faces=faces, crossed_edges=edges, prismatic=len(set(ends)) == len(ends))


def enumerate_circuits(p: AbstractPolyhedron, k: int) -> list[Circuit]:
    """All length-k dual cycles, one representative per rotation/reversal class.

    Uses the standard smallest-start enumeration: cycles are grown from
    their minimal face id, and the direction is fixed by requiring the
    second face to be smaller than the last.
    """
    if k < 3:
        raise ValueError("k-circuits need k >= 3")
    nf = len(p.faces)
    adj: dict[int, list[int]] = {f: [] for f in range(nf)}
    for (a, b) in p.face_adjacency:
        adj[a].append(b)
    for f in adj:
        adj[f] = sorted(set(adj[f]))

    out: list[Circuit] = []

    def grow(path: list[int], used: set[int]):
        if len(path) == k:
            if path[0] in adj[path[-1]] and path[1] < path[-1]:
                out.append(_build_circuit(p, tuple(path)))
            return
        for g in adj[path[-1]]:
            if g > path[0] and g not in used:
                used.add(g)
                path.append(g)
                grow(path, used)
                path.pop()
                used.remove(g)

    for start in range(nf):
        grow([start], {start})
    out.sort(key=lambda c: c.faces)
    return out


def circuits_up_to(p: AbstractPolyhedron, cap: int = DEFAULT_CIRCUIT_CAP) -> list[Circuit]:
    """All circuits with 3 <= k <= min(cap, F)."""
    out: list[Circuit] = []
    for k in range(3, min(cap, len(p.faces)) + 1):
        out.extend(enumerate_circuits(p, k))
    return out


def separating_triangles(p: AbstractPolyhedron) -> list[Circuit]:
    """Prismatic 3-circuits (the curves a polyhedron can be cut along)."""
    return [c for c in enumerate_circuits(p, 3) if c.prismatic]


def vertex_sides(p: AbstractPolyhedron, c: Circuit) -> tuple[frozenset[int], frozenset[int]]:
    """Partition of the vertices induced by cutting the crossed edges.

    The curve separates the sphere into two disks; removing the crossed
    edges from the graph leaves exactly one vertex component per disk.
    The side containing the smallest vertex id comes first.
    """
    cut = set(c.crossed_edges)
    adj: dict[int, list[int]] = {v: [] for v in p.vertices}
    for (a, b) in p.edge_faces:
        if (a, b) not in cut:
            adj[a].append(b)
            adj[b].append(a)
    comps: list[set[int]] = []
    unseen = set(p.vertices)
    while unseen:
        v0 = min(unseen)
        comp = {v0}
        stack = [v0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        unseen -= comp
        comps.append(comp)
    if len(comps) != 2:
        raise ValueError(
            f"circuit {c.faces} does not cut the vertex set into two sides "
            f"(got {len(comps)} components)")
    comps.sort(key=min)
    return frozenset(comps[0]), frozenset(comps[1])


def faces_inside(p: AbstractPolyhedron, c: Circuit, side: frozenset[int]) -> frozenset[int]:
    """Faces lying entirely on the given vertex side (circuit faces excluded)."""
    on_curve = set(c.faces)
    return frozenset(
        fid for fid, cyc in enumerate(p.faces)
        if fid not in on_curve and set(cyc) <= side
    )
