"""Enumeration of k-circuits as cycles in the face-adjacency (dual) graph.

A k-circuit is a simple closed curve crossing k edges; in the dual
picture it is a cycle of k distinct faces, consecutive ones adjacent,
with the crossed edge recorded for each step.  A circuit is prismatic
when the 2k endpoints of the crossed edges are pairwise distinct.
Circuits come out canonical by construction, each face cycle its own
``poly_model.canonical_cycle`` and the cycles in ascending order, so
nothing downstream re-canonicalizes or re-sorts them.

``iter_circuits`` is the one enumerator.  Its depth-first search enters
a face only if the path can still close up in time, judged by
breadth-first distances back to the start face, so it walks no branch
that yields nothing.  A search that runs to the end keeps its circuits
on the polyhedron (which is immutable), and every later call for the
same k replays them; a caller that stops early, as ``haken.classify``
does at its witness, leaves nothing behind.  ``enumerate_circuits`` is
the same circuits as a fresh list.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .poly_model import AbstractPolyhedron, Edge

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
    k = len(faces)
    edges = tuple(p.face_adjacency[(faces[i], faces[(i + 1) % k])] for i in range(k))
    ends = [v for e in edges for v in e]
    return Circuit(faces=faces, crossed_edges=edges, prismatic=len(set(ends)) == len(ends))


def iter_circuits(p: AbstractPolyhedron, k: int) -> Iterator[Circuit]:
    """All length-k dual cycles, one representative per rotation/reversal
    class, in ascending order of their face tuples, as an iterator.

    Uses the standard smallest-start enumeration: cycles are grown from
    their minimal face id, and the direction is fixed by requiring the
    second face to be smaller than the last, which makes each emitted
    tuple its own canonical_cycle.  Starts run in ascending order and
    every step tries neighbors in ascending order, so the depth-first
    search emits the tuples sorted.  A neighbor is entered only when its
    distance back to the start, through faces above the start, leaves
    room to close the cycle within k faces; the branches this cuts
    yield nothing, so the output does not change.

    The first search for k that runs to the end stores its circuits on
    ``p``; later calls replay them.  An iterator dropped early stores
    nothing.
    """
    if k < 3:
        raise ValueError("k-circuits need k >= 3")
    found = vars(p).setdefault("_circuits", {})
    if k in found:
        return iter(found[k])
    return _search(p, k, found)


def _search(p: AbstractPolyhedron, k: int, found: dict) -> Iterator[Circuit]:
    adj = p.face_neighbors
    out = []
    for start in adj:
        near = _distances(adj, start, k - 2)
        path = [start]
        branches = [iter(adj[start])]
        while branches:
            room = k - len(path)  # steps left back to the start, the closing edge included
            for g in branches[-1]:
                if g > start and near[g] <= room and g not in path:
                    break
            else:
                branches.pop()
                path.pop()
                continue
            if room > 1:
                path.append(g)
                branches.append(iter(adj[g]))
            elif path[1] < g:  # g is the k-th face and, at distance 1, closes the cycle
                c = _build_circuit(p, (*path, g))
                out.append(c)
                yield c
    found[k] = tuple(out)


def _distances(adj: dict[int, tuple[int, ...]], start: int, depth: int) -> list[int]:
    """Breadth-first distance from ``start`` to each face, walking only
    faces above ``start``; a face farther than ``depth`` gets depth + 1."""
    far = depth + 1
    dist = [far] * len(adj)
    dist[start] = 0
    layer = [start]
    for d in range(1, depth + 1):
        nxt = []
        for f in layer:
            for g in adj[f]:
                if g > start and dist[g] == far:
                    dist[g] = d
                    nxt.append(g)
        layer = nxt
    return dist


def enumerate_circuits(p: AbstractPolyhedron, k: int) -> list[Circuit]:
    """``iter_circuits(p, k)`` as a fresh list: the first call for a k
    enumerates and stores the circuits on ``p``, later ones copy them."""
    return list(iter_circuits(p, k))


def circuits_up_to(p: AbstractPolyhedron, cap: int = DEFAULT_CIRCUIT_CAP) -> list[Circuit]:
    """All circuits with 3 <= k <= min(cap, F), ordered by k, then by faces."""
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
    Components are grown from the smallest unseen vertex, so the side
    containing the smallest vertex id comes first.
    """
    cut = set(c.crossed_edges)
    comps: list[set[int]] = []
    unseen = set(p.vertices)
    while unseen:
        v0 = min(unseen)
        comp = {v0}
        stack = [v0]
        while stack:
            v = stack.pop()
            for e in p.vertex_edges[v]:
                w = e[1] if e[0] == v else e[0]
                if e not in cut and w not in comp:
                    comp.add(w)
                    stack.append(w)
        unseen -= comp
        comps.append(comp)
    if len(comps) != 2:
        raise ValueError(
            f"circuit {c.faces} does not cut the vertex set into two sides "
            f"(got {len(comps)} components)")
    return frozenset(comps[0]), frozenset(comps[1])
