"""Combinatorial model of labeled abstract polyhedra.

An abstract polyhedron is a planar trivalent graph given by its face
cycles (one face playing the role of the unbounded region).  Edges,
incidences, face adjacency (``face_neighbors``, the one neighbour list
every walk over faces reads) and the planar rotation system are all
derived from the face cycles.  A labeled polyhedron attaches an integer
n >= 2 to every edge, encoding the dihedral angle pi/n.

Symmetry comes from one walk from dart 0, then array propagation (a
dart is a directed edge of an oriented face cycle): the breadth-first
walk is a tree over the darts, and every candidate image of dart 0 goes
through it at once; a candidate is an automorphism exactly when its walk
writes dart 0's code, as in Weinberg's planar-map code and plantri.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, repeat
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # automorphisms, the one numeric function, imports numpy when it runs
    import numpy as np

Edge = tuple[int, int]


class PolyhedronError(Exception):
    """Base class for errors raised by this package."""


class ParseError(PolyhedronError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def edge_key(a: int, b: int) -> Edge:
    """Canonical identity of an edge: the sorted vertex pair."""
    if a == b:
        raise ValueError(f"degenerate edge ({a},{b})")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class AbstractPolyhedron:
    """Planar graph with explicit face cycles.

    ``faces`` maps positionally: face id is the index into the tuple.
    ``outer_face`` marks the unbounded region of the planar projection;
    the realization seed reads only its size.
    ``ideal_candidates`` lists vertices that are allowed to be 4-valent;
    those model apexes that may be pushed to infinity.
    """

    name: str
    faces: tuple[tuple[int, ...], ...]
    outer_face: int | None = None
    ideal_candidates: frozenset[int] = field(default_factory=frozenset)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for f in self.faces:
            seen.update(f)
        return tuple(sorted(seen))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edge_faces))

    @cached_property
    def edge_faces(self) -> dict[Edge, tuple[int, ...]]:
        """Edge -> ids of incident faces (2 when well-formed); a dart v -> v is no edge."""
        inc: dict[Edge, tuple[int, ...]] = {}
        for fid, cyc in enumerate(self.faces):
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a != b:
                    e = (a, b) if a < b else (b, a)
                    inc[e] = inc.get(e, ()) + (fid,)
        return inc

    @cached_property
    def vertex_edges(self) -> dict[int, tuple[Edge, ...]]:
        inc: dict[int, tuple[Edge, ...]] = dict.fromkeys(self.vertices, ())
        for e in self.edges:  # ascending, so each vertex's edges come out sorted
            inc[e[0]] += (e,)
            inc[e[1]] += (e,)
        return inc

    @cached_property
    def vertex_faces(self) -> dict[int, tuple[int, ...]]:
        inc: dict[int, tuple[int, ...]] = dict.fromkeys(self.vertices, ())
        for fid, cyc in enumerate(self.faces):
            for v in set(cyc):
                inc[v] += (fid,)
        return inc

    @cached_property
    def face_adjacency(self) -> dict[tuple[int, int], Edge]:
        """(face id, face id) pairs sharing an edge -> the shared edge."""
        adj: dict[tuple[int, int], Edge] = {}
        for e, fs in self.edge_faces.items():
            if len(fs) == 2:
                a, b = fs
                adj[(a, b)] = e
                adj[(b, a)] = e
        return adj

    @cached_property
    def face_neighbors(self) -> dict[int, tuple[int, ...]]:
        """Face id -> ascending ids of the faces sharing an edge with it."""
        nbrs: dict[int, list[int]] = {f: [] for f in range(len(self.faces))}
        for a, b in self.face_adjacency:
            nbrs[a].append(b)
        return {f: tuple(sorted(gs)) for f, gs in nbrs.items()}

    def valence(self, v: int) -> int:
        return len(self.vertex_edges[v])

    @cached_property
    def oriented_faces(self) -> tuple[tuple[int, ...], ...] | None:
        """Face cycles re-oriented so every directed edge occurs exactly once.

        Face 0 keeps its cycle; a depth-first walk over face_neighbors
        reverses each newly reached face exactly when it runs the shared
        edge as the face it was reached from is oriented to run it.  One
        set of the given cycles' darts tells the two apart: two faces run
        their shared edge the same way unless the set holds both of its
        darts.  The same test then checks the flips edge by edge.  Returns
        None if no consistent orientation exists or there are no faces (the
        face data does not describe a connected closed surface).
        """
        if not self.faces:
            return None
        given = set(chain.from_iterable(map(_darts, self.faces)))
        flip: list[bool | None] = [None] * len(self.faces)
        flip[0] = False
        stack = [0]
        while stack:
            f = stack.pop()
            for g in self.face_neighbors[f]:
                if flip[g] is None:
                    a, b = self.face_adjacency[f, g]
                    flip[g] = flip[f] ^ ((a, b) not in given or (b, a) not in given)
                    stack.append(g)
        if None in flip:
            return None
        # each edge's two faces must run it opposite ways once flipped
        opposite = 0
        for (a, b), fs in self.edge_faces.items():
            both = (a, b) in given and (b, a) in given
            if len(fs) != 2 or flip[fs[0]] ^ flip[fs[1]] == both:
                return None
            opposite += both
        # the given set holds an edge's darts once, or twice if opposite:
        # it is short of the cycles' darts only by a repeated dart v -> v
        if sum(map(len, self.faces)) != len(given) + len(self.edge_faces) - opposite:
            return None
        return tuple(cyc[::-1] if fl else cyc for cyc, fl in zip(self.faces, flip))


def _darts(cyc: tuple[int, ...]):
    """The directed edges of a face cycle, in cycle order."""
    return zip(cyc, cyc[1:] + cyc[:1])


@dataclass(frozen=True)
class LabeledPolyhedron:
    base: AbstractPolyhedron
    labels: dict[Edge, int] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for e in self.base.edges:
            if e not in self.labels:
                raise PolyhedronError(f"edge {e} has no label")
        for e, n in self.labels.items():
            if n < 2:
                raise PolyhedronError(f"label {n} < 2 on edge {e}")

    def angles(self) -> dict[Edge, float]:
        """Dihedral angles pi/n as floats, keyed by edge."""
        return {e: math.pi / n for e, n in self.labels.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledPolyhedron):
            return NotImplemented
        return (
            self.base == other.base
            and sorted(self.labels.items()) == sorted(other.labels.items())
        )

    def __hash__(self):
        return hash((self.base, tuple(sorted(self.labels.items()))))


@dataclass(frozen=True)
class Violation:
    rule: str
    witness: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def validate(p: AbstractPolyhedron) -> ValidationReport:
    """Check the defining conditions of an abstract polyhedron.

    Every failure is reported with a concrete witness; nothing raises.
    Rules: face-count, edge-two-faces, trivalence (with the 4-valent
    exemption for declared ideal candidates), Euler relation, pairwise
    face intersection in at most one edge or one vertex, closedness.

    The face-intersection rule counts the shared vertices and shared
    edges of every face pair from the incidences, each vertex's faces
    and each edge's faces, in O(V + E).  A pair breaks the rule when it
    shares more than one edge, one edge and more than its two
    endpoints, or no edge and more than one vertex.  Only the pairs
    that break it, in ascending (fa, fb) order, intersect their faces'
    vertex and edge sets for the witness.
    """
    out: list[Violation] = []
    if len(p.faces) <= 3:
        out.append(Violation("face-count", (len(p.faces),),
                             f"only {len(p.faces)} faces, need more than 3"))
    for fid, cyc in enumerate(p.faces):
        if len(cyc) < 3:
            out.append(Violation("short-face", (fid,),
                                 f"face {fid} has fewer than 3 vertices"))
        if len(set(cyc)) != len(cyc):
            out.append(Violation("repeated-vertex", (fid,),
                                 f"face {fid} repeats a vertex"))
    # the face pairs sharing each edge; the faces of an edge ascend, and
    # (f, f), a face running an edge twice, is no pair and never looked up
    edge_pairs: list[tuple[int, ...]] = []
    for e, fs in p.edge_faces.items():
        if len(fs) == 2:
            edge_pairs.append(fs)
        else:
            out.append(Violation("edge-two-faces", (e, fs),
                                 f"edge {e} lies in {len(fs)} faces"))
            edge_pairs += combinations(dict.fromkeys(fs), 2)
    for v in p.vertices:
        d = p.valence(v)
        if d == 4 and v in p.ideal_candidates:
            continue
        if d != 3:
            out.append(Violation("trivalence", (v, d),
                                 f"vertex {v} has valence {d}"))
    V = len(p.vertices)
    E = len(p.edge_faces)
    F = len(p.faces)
    if V - E + F != 2:
        out.append(Violation("euler", (V, E, F),
                             f"V-E+F = {V - E + F}, expected 2"))
    # (fa, fb) -> the number of vertices, and of edges, the two faces share;
    # a pair sharing vertices is sound with one shared edge and its two ends
    n_v = Counter(chain.from_iterable(map(combinations, p.vertex_faces.values(), repeat(2))))
    n_e = Counter(edge_pairs)
    bad = sorted(ab for ab, n in n_v.items() if n > 1 and (n > 2 or n_e[ab] != 1))
    if bad:
        # shared edges are listed in edge_faces order
        order = {e: i for i, e in enumerate(p.edge_faces)}
        face_edges: list[set[Edge]] = [set() for _ in p.faces]
        for e, fs in p.edge_faces.items():
            for f in fs:
                face_edges[f].add(e)
        for fa, fb in bad:
            shared_v = set(p.faces[fa]) & set(p.faces[fb])
            shared_e = sorted(face_edges[fa] & face_edges[fb], key=order.__getitem__)
            if len(shared_e) > 1:
                out.append(Violation("face-intersection", (fa, fb, tuple(shared_e)),
                                     f"faces {fa},{fb} share {len(shared_e)} edges"))
            elif shared_e:
                extra = shared_v - set(shared_e[0])
                out.append(Violation("face-intersection", (fa, fb, shared_e[0], tuple(sorted(extra))),
                                     f"faces {fa},{fb} share an edge and extra vertices"))
            else:
                out.append(Violation("face-intersection", (fa, fb, tuple(sorted(shared_v))),
                                     f"faces {fa},{fb} share {len(shared_v)} vertices but no edge"))
    if not out and p.oriented_faces is None:
        out.append(Violation("not-closed", (),
                             "face cycles admit no consistent orientation"))
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# File format


def parse_polyhedron(text: str) -> LabeledPolyhedron:
    """Parse the line-oriented ``.apoly`` format.

    Sections may appear in any order.  Unlabeled edges default to 2 and
    a warning is recorded on the result.
    """
    name = None
    declared: dict[int, bool] = {}  # vertex -> ideal-candidate flag
    faces: dict[int, tuple[int, ...]] = {}
    outer: int | None = None
    raw_labels: dict[Edge, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kw = parts[0]
        if kw == "polyhedron":
            if len(parts) != 2:
                raise ParseError("expected: polyhedron <name>", lineno)
            name = parts[1]
        elif kw == "vertex":
            if len(parts) not in (2, 3):
                raise ParseError("expected: vertex <id> [ideal-candidate]", lineno)
            try:
                vid = int(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex id {parts[1]!r}", lineno)
            flag = False
            if len(parts) == 3:
                if parts[2] != "ideal-candidate":
                    raise ParseError(f"unknown vertex flag {parts[2]!r}", lineno)
                flag = True
            if vid in declared:
                raise ParseError(f"duplicate vertex {vid}", lineno)
            declared[vid] = flag
        elif kw == "face":
            if len(parts) < 2 or not parts[1].endswith(":"):
                raise ParseError("expected: face <id>: <v0> <v1> ...", lineno)
            try:
                fid = int(parts[1][:-1])
            except ValueError:
                raise ParseError(f"bad face id {parts[1][:-1]!r}", lineno)
            rest = parts[2:]
            is_outer = False
            if rest and rest[-1] == "outer":
                is_outer = True
                rest = rest[:-1]
            if len(rest) < 3:
                raise ParseError(f"face {fid} needs at least 3 vertices", lineno)
            try:
                cyc = tuple(map(int, rest))
            except ValueError:
                raise ParseError("face vertices must be integers", lineno)
            if fid in faces:
                raise ParseError(f"duplicate face id {fid}", lineno)
            faces[fid] = cyc
            if is_outer:
                if outer is not None:
                    raise ParseError("more than one face marked outer", lineno)
                outer = fid
        elif kw == "label":
            if len(parts) != 4:
                raise ParseError("expected: label <va> <vb> <n>", lineno)
            try:
                a, b, n = map(int, parts[1:])
            except ValueError:
                raise ParseError("label arguments must be integers", lineno)
            if n < 2:
                raise ParseError(f"label {n} < 2 on edge ({a},{b})", lineno)
            if a == b:
                raise ParseError(f"label on degenerate edge ({a},{b})", lineno)
            e = edge_key(a, b)
            if e in raw_labels:
                raise ParseError(f"duplicate label on edge ({e[0]},{e[1]})", lineno)
            raw_labels[e] = n
        else:
            raise ParseError(f"unknown directive {kw!r}", lineno)
    if name is None:
        raise ParseError("missing 'polyhedron <name>' header")
    if not faces:
        raise ParseError("no faces given")
    # re-index faces densely, preserving id order
    order = sorted(faces)
    face_tuple = tuple(faces[i] for i in order)
    outer_idx = order.index(outer) if outer is not None else None
    ideal = frozenset(v for v, fl in declared.items() if fl)
    p = AbstractPolyhedron(name=name, faces=face_tuple, outer_face=outer_idx,
                           ideal_candidates=ideal)
    known = set(p.vertices)
    for v in declared:
        if v not in known:
            raise ParseError(f"declared vertex {v} appears in no face")
    for e, fs in p.edge_faces.items():
        if len(fs) != 2:
            raise ParseError(f"edge {e} occurs in {len(fs)} face cycles, expected 2")
    for e in raw_labels:
        if e not in p.edge_faces:
            raise ParseError(f"label on unknown edge {e}")
    labels = {e: raw_labels.get(e, 2) for e in p.edges}
    unlabeled = len(labels) - len(raw_labels)
    warnings = (f"{unlabeled} unlabeled edge(s) defaulted to 2",) if unlabeled else ()
    return LabeledPolyhedron(base=p, labels=labels, warnings=warnings)


def serialize_polyhedron(lp: LabeledPolyhedron) -> str:
    """Canonical text form; ``parse_polyhedron`` inverts it exactly."""
    p = lp.base
    lines = [f"polyhedron {p.name}"]
    for v in p.vertices:
        flag = " ideal-candidate" if v in p.ideal_candidates else ""
        lines.append(f"vertex {v}{flag}")
    for fid, cyc in enumerate(p.faces):
        tail = " outer" if fid == p.outer_face else ""
        lines.append(f"face {fid}: " + " ".join(str(v) for v in cyc) + tail)
    for e in p.edges:
        lines.append(f"label {e[0]} {e[1]} {lp.labels[e]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Automorphisms


def _walk(rev: list[int], step: list[int], d0: int):
    """Breadth-first walk over dart ids from d0, taking each dart's reverse
    and then its step: the visit order, and the code, the visit position of
    every dart looked at."""
    pos = [-1] * len(rev)
    pos[d0] = 0
    order = [d0]
    code: list[int] = []
    for d in order:
        for nd in (rev[d], step[d]):
            if pos[nd] < 0:
                pos[nd] = len(order)
                order.append(nd)
            code.append(pos[nd])
    return order, code


# candidate-dart entries gathered at once when automorphisms pushes its
# candidate images of dart 0 through the walk's tree in blocks
_AUTOMORPHISM_BLOCK = 2**16


def automorphisms(p: AbstractPolyhedron) -> np.ndarray:
    """All vertex permutations preserving the face structure, as an integer
    array of shape (|G|, V): row g, column j is the image of
    ``p.vertices[j]``.  Rows ascend, compared as sequences; the identity
    comes first.

    The rows are distinct only on a polyhedron that passes ``validate``:
    the dihedron ``((0, 1, 2), (0, 2, 1))`` fails it and gives 12 rows,
    6 of them distinct.  PolyhedronError when the faces admit no closed
    orientable surface.

    Includes reflections.  One walk from dart 0 (``_walk``) is a
    breadth-first tree over the darts: the dart first written at code
    position c hangs off ``order0[c // 2]``, by reversal when c is even
    and by the step when c is odd.  A rotation may send dart 0 to any
    dart and steps with ``nxt``, a reflection to any reversed dart and
    steps with ``prv``; every candidate image goes through the tree at
    once, one (candidates x darts) gather per layer, in blocks of about
    ``_AUTOMORPHISM_BLOCK`` entries.  A candidate's dart map is kept when
    it commutes with reversal and the step at every code position, that
    is when the walk from its image of dart 0 writes dart 0's code; it
    then reaches every dart (a closed polyhedron's darts are connected),
    so it maps vertices bijectively: tail to tail, for a reflection head
    to tail.
    """
    import numpy as np

    faces = p.oriented_faces
    if faces is None:
        raise PolyhedronError("polyhedron is not orientable/closed")
    darts = sorted(d for cyc in faces for d in _darts(cyc))
    ids = {d: i for i, d in enumerate(darts)}
    rev = [ids[b, a] for a, b in darts]
    succ = dict(pair for cyc in faces for pair in _darts(tuple(_darts(cyc))))
    nxt = [ids[succ[d]] for d in darts]
    order0, code0 = _walk(rev, nxt, 0)
    n = len(darts)
    # the code position first writing each order position k >= 1 is its
    # tree edge; the walk is breadth first, so the tree's layers are runs
    # of order positions.  The other code positions are checked
    first, loose = [], []
    for c, k in enumerate(code0):
        (first if k == len(first) + 1 else loose).append(c)
    depth = [0]
    for c in first:
        depth.append(depth[c // 2] + 1)
    cuts = [k for k in range(1, n) if depth[k] != depth[k - 1]] + [n]
    # a candidate's table is rev + step, so code position c reads entry
    # (c % 2)·n + the image of order position c // 2
    first, loose = np.array(first), np.array(loose)
    layers = [(a, b, first[a - 1:b - 1] // 2, first[a - 1:b - 1] % 2 * n)
              for a, b in zip(cuts, cuts[1:])]
    loose_at, loose_move, loose_code = loose // 2, loose % 2 * n, np.array(code0)[loose]
    ends = np.array(darts)
    tail = ends[:, 0]
    block = max(1, _AUTOMORPHISM_BLOCK // n)
    images = []
    for step, starts, end in ((nxt, range(n), 0), (sorted(range(n), key=nxt.__getitem__), rev, 1)):
        table = np.array(rev + step)
        # each vertex's image, in ascending vertex order, read at the first
        # order position whose dart has it as tail (rotations) or head
        # (reflections)
        at = np.unique(ends[order0, end], return_index=True)[1]
        for lo in range(0, n, block):
            img = np.empty((len(starts[lo:lo + block]), n), dtype=np.intp)
            img[:, 0] = starts[lo:lo + block]
            for a, b, parent, move in layers:
                img[:, a:b] = table[img[:, parent] + move]
            ok = (table[img[:, loose_at] + loose_move] == img[:, loose_code]).all(axis=1)
            images.append(tail[img[ok][:, at]])
    images = np.concatenate(images)
    return images[np.lexsort(images.T[::-1])]


def canonical_cycle(cyc: Iterable[int]) -> tuple[int, ...]:
    """Lexicographically smallest rotation or reflection of a cyclic sequence."""
    cyc = tuple(cyc)
    best = None
    for seq in (cyc, cyc[::-1]):
        for i in range(len(seq)):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best = rot
    return best
