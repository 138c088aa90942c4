"""Combinatorial model of labeled abstract polyhedra.

An abstract polyhedron is a planar trivalent graph given by its face
cycles (one face playing the role of the unbounded region).  Edges,
incidences and the planar rotation system are all derived from the face
cycles.  A labeled polyhedron attaches an integer n >= 2 to every edge,
encoding the dihedral angle pi/n.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

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
    ``outer_face`` marks the unbounded region of the planar projection
    (ordinary data, kept for serialization fidelity).
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
        """Edge -> ids of incident faces (2 for a well-formed polyhedron)."""
        inc: dict[Edge, list[int]] = {}
        for fid, cyc in enumerate(self.faces):
            for i, a in enumerate(cyc):
                b = cyc[(i + 1) % len(cyc)]
                inc.setdefault(edge_key(a, b), []).append(fid)
        return {e: tuple(fs) for e, fs in inc.items()}

    @cached_property
    def vertex_edges(self) -> dict[int, tuple[Edge, ...]]:
        inc: dict[int, set[Edge]] = {v: set() for v in self.vertices}
        for e in self.edge_faces:
            inc[e[0]].add(e)
            inc[e[1]].add(e)
        return {v: tuple(sorted(es)) for v, es in inc.items()}

    @cached_property
    def vertex_faces(self) -> dict[int, tuple[int, ...]]:
        inc: dict[int, set[int]] = {v: set() for v in self.vertices}
        for fid, cyc in enumerate(self.faces):
            for v in cyc:
                inc[v].add(fid)
        return {v: tuple(sorted(fs)) for v, fs in inc.items()}

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

    def shared_edge(self, fa: int, fb: int) -> Edge | None:
        return self.face_adjacency.get((fa, fb))

    def valence(self, v: int) -> int:
        return len(self.vertex_edges[v])

    @cached_property
    def oriented_faces(self) -> tuple[tuple[int, ...], ...] | None:
        """Face cycles re-oriented so every directed edge occurs exactly once.

        Returns None if no consistent orientation exists (the face data
        does not describe a closed surface).
        """
        n = len(self.faces)
        flip = [False] * n
        decided = [False] * n
        if n == 0:
            return ()
        # BFS over face adjacency, flipping faces to agree with neighbors.
        dart_face: dict[tuple[int, int], int] = {}

        def darts(fid: int) -> list[tuple[int, int]]:
            cyc = self.faces[fid]
            if flip[fid]:
                cyc = cyc[::-1]
            return [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]

        order = list(range(n))
        stack = [0]
        decided[0] = True
        adj_faces: dict[int, set[int]] = {i: set() for i in order}
        for (a, b) in self.face_adjacency:
            adj_faces[a].add(b)
        processed: list[int] = []
        while stack:
            fid = stack.pop()
            processed.append(fid)
            for g in sorted(adj_faces[fid]):
                if decided[g]:
                    continue
                e = self.face_adjacency[(fid, g)]
                # fid traverses e one way; g must traverse it the other way
                fd = darts(fid)
                flip[g] = False
                gd = darts(g)
                same = any(d in gd for d in fd)
                if same:
                    flip[g] = True
                decided[g] = True
                stack.append(g)
        if not all(decided):
            return None  # disconnected face structure
        for fid in range(n):
            for d in darts(fid):
                if d in dart_face:
                    return None
                dart_face[d] = fid
        # closedness: the reverse of every dart must exist too
        for d in dart_face:
            if (d[1], d[0]) not in dart_face:
                return None
        out = []
        for fid in range(n):
            cyc = self.faces[fid]
            out.append(tuple(cyc[::-1]) if flip[fid] else tuple(cyc))
        return tuple(out)


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

    def label(self, e: Edge) -> int:
        return self.labels[e]

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
    for e, fs in p.edge_faces.items():
        if len(fs) != 2:
            out.append(Violation("edge-two-faces", (e, fs),
                                 f"edge {e} lies in {len(fs)} faces"))
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
    for fa, fb in combinations(range(len(p.faces)), 2):
        sa, sb = set(p.faces[fa]), set(p.faces[fb])
        shared_v = sa & sb
        shared_e = [e for e, fs in p.edge_faces.items()
                    if set(fs) >= {fa, fb} and len(set(fs)) >= 2]
        shared_e = [e for e in shared_e if fa in p.edge_faces[e] and fb in p.edge_faces[e]]
        if len(shared_e) > 1:
            out.append(Violation("face-intersection", (fa, fb, tuple(shared_e)),
                                 f"faces {fa},{fb} share {len(shared_e)} edges"))
        elif len(shared_e) == 1:
            extra = shared_v - set(shared_e[0])
            if extra:
                out.append(Violation("face-intersection", (fa, fb, shared_e[0], tuple(sorted(extra))),
                                     f"faces {fa},{fb} share an edge and extra vertices"))
        else:
            if len(shared_v) > 1:
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
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
                cyc = tuple(int(t) for t in rest)
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
                a, b, n = (int(t) for t in parts[1:])
            except ValueError:
                raise ParseError("label arguments must be integers", lineno)
            if n < 2:
                raise ParseError(f"label {n} < 2 on edge ({a},{b})", lineno)
            raw_labels[edge_key(a, b)] = n
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
    warnings = []
    labels: dict[Edge, int] = {}
    for e in p.edges:
        if e in raw_labels:
            labels[e] = raw_labels[e]
        else:
            labels[e] = 2
    unlabeled = [e for e in p.edges if e not in raw_labels]
    if unlabeled:
        warnings.append(f"{len(unlabeled)} unlabeled edge(s) defaulted to 2")
    for e in raw_labels:
        if e not in p.edge_faces:
            raise ParseError(f"label on unknown edge {e}")
    return LabeledPolyhedron(base=p, labels=labels, warnings=tuple(warnings))


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


def _dart_maps(p: AbstractPolyhedron):
    faces = p.oriented_faces
    if faces is None:
        raise PolyhedronError("polyhedron is not orientable/closed")
    nxt: dict[tuple[int, int], tuple[int, int]] = {}
    for cyc in faces:
        k = len(cyc)
        for i in range(k):
            nxt[(cyc[i], cyc[(i + 1) % k])] = (cyc[(i + 1) % k], cyc[(i + 2) % k])
    prv = {b: a for a, b in nxt.items()}
    return nxt, prv


def _propagate(p, nxt, prv, d0, image0, reversing: bool) -> dict[int, int] | None:
    """Extend a single dart assignment to a full automorphism, or fail."""
    phi = {d0: image0}
    stack = [d0]
    step = prv if reversing else nxt
    while stack:
        d = stack.pop()
        img = phi[d]
        for nd, nimg in (((d[1], d[0]), (img[1], img[0])), (nxt[d], step[img])):
            if nd in phi:
                if phi[nd] != nimg:
                    return None
            else:
                phi[nd] = nimg
                stack.append(nd)
    if len(phi) != len(nxt):
        return None
    vmap: dict[int, int] = {}
    for d, img in phi.items():
        u = d[1] if reversing else d[0]
        w = img[0]
        if vmap.setdefault(u, w) != w:
            return None
    if len(set(vmap.values())) != len(vmap):
        return None
    return vmap


def automorphisms(p: AbstractPolyhedron) -> list[dict[int, int]]:
    """All vertex permutations preserving the face structure.

    Includes reflections of the planar embedding.  An automorphism is
    pinned down by the image of a single flag, so at most 4E candidates
    exist; each is checked by propagation over the rotation system.
    """
    nxt, prv = _dart_maps(p)
    darts = sorted(nxt)
    d0 = darts[0]
    found: list[dict[int, int]] = []
    seen: set[tuple] = set()
    for reversing in (False, True):
        for img in darts:
            image0 = (img[1], img[0]) if reversing else img
            vmap = _propagate(p, nxt, prv, d0, image0, reversing)
            if vmap is None:
                continue
            if not _preserves_faces(p, vmap):
                continue
            key = tuple(sorted(vmap.items()))
            if key not in seen:
                seen.add(key)
                found.append(vmap)
    found.sort(key=lambda m: tuple(sorted(m.items())))
    return found


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


def _preserves_faces(p: AbstractPolyhedron, vmap: dict[int, int]) -> bool:
    face_set = {canonical_cycle(c) for c in p.faces}
    for cyc in p.faces:
        if canonical_cycle(vmap[v] for v in cyc) not in face_set:
            return False
    return True


def apply_automorphism_to_edges(p: AbstractPolyhedron, vmap: dict[int, int]) -> dict[Edge, Edge]:
    return {e: edge_key(vmap[e[0]], vmap[e[1]]) for e in p.edges}
