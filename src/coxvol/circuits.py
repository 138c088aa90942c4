"""Enumeration of k-circuits as cycles in the face-adjacency (dual) graph.

A k-circuit is a simple closed curve crossing k edges; in the dual
picture it is a cycle of k distinct faces, consecutive ones adjacent,
with the crossed edge recorded for each step.  A circuit is prismatic
when the 2k endpoints of the crossed edges are pairwise distinct.
Circuits come out canonical by construction, each face cycle its own
``poly_model.canonical_cycle`` and the cycles in ascending order, so
nothing downstream re-canonicalizes or re-sorts them.

``iter_cycles`` gives each length's cycles as (faces, prismatic)
records, the prismatic flag read from bitmasks of the crossed edges'
endpoints, and keeps them on the polyhedron (which is immutable), one
store per length.  The 3- and 4-cycles come from intersections of
neighbour sets, both lengths in one pass.  From k = 5 on, a
depth-first search is the one enumerator: it enters a face only if the
path can still close up in time, judged by breadth-first distances back
to the start face, so it walks no branch that yields nothing; it is
lazy, and only a search that runs to the end is kept, so a caller that
stops early, as ``haken.classify`` does at its witness, leaves nothing
behind.

A ``Circuit`` object is built only where one is kept:
``enumerate_circuits``, a fresh list built from the stored records, so
a replay searches nothing; ``prismatic_circuits``, the rows of the
admissibility table; and the circuits ``haken.classify`` tests.
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

    @classmethod
    def from_faces(cls, p: AbstractPolyhedron, faces: tuple[int, ...],
                   prismatic: bool) -> Circuit:
        """The circuit through ``faces``, its prismatic flag already known."""
        edges = tuple(map(p.face_adjacency.__getitem__, zip(faces, faces[1:] + faces[:1])))
        return cls(faces, edges, prismatic)

    @property
    def k(self) -> int:
        return len(self.faces)

    def format_line(self) -> str:
        fs = ",".join(str(f) for f in self.faces)
        es = ",".join(f"({a},{b})" for a, b in self.crossed_edges)
        return f"circuit k={self.k} prismatic={self.prismatic} faces={fs} edges={es}"


def iter_cycles(p: AbstractPolyhedron, k: int) -> Iterator[tuple[tuple[int, ...], bool]]:
    """All length-k dual cycles as (faces, prismatic) records, one per
    rotation/reversal class, each face tuple its own canonical_cycle and
    the tuples ascending, as an iterator.

    The first call for k <= 4 fills the stores of both 3 and 4; the first
    for k >= 5 runs the lazy search, which is stored only if it runs to
    the end.  Later calls replay the store.
    """
    if k < 3:
        raise ValueError("k-circuits need k >= 3")
    found = vars(p).setdefault("_cycles", {})
    if k not in found:
        if k > 4:
            return _search(p, k, found)
        _short_cycles(p, found)
    return iter(found[k])


def _edge_masks(p: AbstractPolyhedron) -> dict[int, dict[int, int]]:
    """Face -> {neighbour face: the two endpoints of their shared edge, as
    a bitmask over the indices of ``p.vertices``}, built once per
    polyhedron.  A cycle is prismatic when the OR of its crossed edges'
    masks has 2k bits.  A face that runs an edge twice (a malformed input)
    is not its own neighbour here, as no cycle of distinct faces steps
    from it to itself."""
    masks = vars(p).get("_edge_masks")
    if masks is None:
        bit = {v: 1 << i for i, v in enumerate(p.vertices)}
        masks = vars(p)["_edge_masks"] = {f: {} for f in range(len(p.faces))}
        for (f, g), (u, v) in p.face_adjacency.items():
            if f != g:
                masks[f][g] = bit[u] | bit[v]
    return masks


def _short_cycles(p: AbstractPolyhedron, found: dict) -> None:
    """Store the 3- and 4-cycles from intersections of neighbour sets.

    Both are grown from their smallest face a and two larger neighbours
    b < d of it.  When b and d are adjacent, (a, b, d) is a triangle;
    every common neighbour c > a of b and d closes the 4-cycle
    (a, b, c, d).  Each tuple is its own canonical_cycle: it starts at
    its smallest face and its second face is below its last.  The
    triangles come out ascending, as a, b and d ascend; the 4-cycles are
    sorted once.
    """
    adj = p.face_neighbors
    masks = _edge_masks(p)
    tri, quad = [], []
    for a, ma in masks.items():
        up = [b for b in adj[a] if b > a]
        for i, b in enumerate(up):
            mb = masks[b]
            for d in up[i + 1:]:
                md = masks[d]
                if d in mb:
                    tri.append(((a, b, d), (ma[b] | mb[d] | ma[d]).bit_count() == 6))
                for c in mb.keys() & md.keys():
                    if c > a:
                        quad.append(((a, b, c, d),
                                     (ma[b] | mb[c] | md[c] | ma[d]).bit_count() == 8))
    quad.sort()
    found[3] = tuple(tri)
    found[4] = tuple(quad)


def _search(p: AbstractPolyhedron, k: int, found: dict) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Length-k dual cycles by the standard smallest-start depth-first
    search, stored in ``found`` once the search runs to the end.

    Cycles are grown from their minimal face id, and the direction is
    fixed by requiring the second face to be smaller than the last, which
    makes each emitted tuple its own canonical_cycle.  Starts run in
    ascending order and every step tries neighbors in ascending order,
    so the search emits the tuples sorted.  A neighbor is entered only
    when its distance back to the start, through faces above the start,
    leaves room to close the cycle within k faces; the branches this cuts
    yield nothing, so the output does not change.
    """
    adj = p.face_neighbors
    masks = _edge_masks(p)
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
                faces = (*path, g)
                ends = masks[g][start]
                for f, h in zip(path, faces[1:]):
                    ends |= masks[f][h]
                out.append((faces, ends.bit_count() == 2 * k))
                yield out[-1]
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
    """The circuits of ``iter_cycles(p, k)``, in its order, as a fresh
    list; ValueError if k < 3."""
    return [Circuit.from_faces(p, faces, prismatic) for faces, prismatic in iter_cycles(p, k)]


def prismatic_circuits(p: AbstractPolyhedron, k: int) -> list[Circuit]:
    """The prismatic k-circuits in enumeration order; only they become
    Circuit objects."""
    return [Circuit.from_faces(p, faces, True) for faces, prismatic in iter_cycles(p, k)
            if prismatic]


def circuits_up_to(p: AbstractPolyhedron, cap: int = DEFAULT_CIRCUIT_CAP) -> list[Circuit]:
    """All circuits with 3 <= k <= min(cap, F), ordered by k, then by
    faces; ValueError if cap < 3."""
    if cap < 3:
        raise ValueError(f"circuit cap must be >= 3, got {cap}")
    out: list[Circuit] = []
    for k in range(3, min(cap, len(p.faces)) + 1):
        out.extend(enumerate_circuits(p, k))
    return out


def separating_triangles(p: AbstractPolyhedron) -> list[Circuit]:
    """Prismatic 3-circuits (the curves a polyhedron can be cut along)."""
    return prismatic_circuits(p, 3)


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
