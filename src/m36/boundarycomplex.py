"""The boundary complex of the space of six lines and its modifications.

The 65 boundary divisors form the vertices of a simplicial complex: the flag
complex of the incidence graph, with 550 edges and fifteen top-dimensional
4-simplices {f_ij, f_kl, f_mn, g, g'}, one per matching of the six lines.

Resolving a singular point changes the complex near the corresponding
4-simplex.  A line fiber at P[ij,kl,mn] severs the edge between the two
cyclic vertices g, g' of that matching (and every face containing it); a
plane fiber instead deletes the triangle {f_ij, f_kl, f_mn} (and its
cofaces) while keeping all three of its edges.  The second operation leaves
a complex that is not flag, so modified complexes are always produced by
filtering the faces of the unresolved complex, never by re-flagging a
pruned graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import labels
from .exactla import smith_normal_form

MAX_DIM = 4


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces listed per dimension as sorted tuples of vertex indices."""

    vertices: tuple
    faces: tuple  # faces[k] = tuple of (k+1)-vertex index tuples

    def f_vector(self):
        counts = [len(fs) for fs in self.faces]
        counts += [0] * (MAX_DIM + 1 - len(counts))
        return tuple(counts)

    def maximal_simplices(self):
        out = []
        for k in range(len(self.faces)):
            if k + 1 < len(self.faces) and self.faces[k + 1]:
                covered = set()
                for face in self.faces[k + 1]:
                    for i in range(len(face)):
                        covered.add(face[:i] + face[i + 1 :])
                out.extend(f for f in self.faces[k] if f not in covered)
            else:
                out.extend(self.faces[k])
        return out

    @classmethod
    def from_maximal(cls, vertices, maximal):
        """Close the given index sets under subsets."""
        by_dim = [set() for _ in range(MAX_DIM + 1)]
        stack = [tuple(sorted(m)) for m in maximal]
        seen = set(stack)
        while stack:
            face = stack.pop()
            k = len(face) - 1
            if k > MAX_DIM:
                raise ValueError("dimension exceeds %d" % MAX_DIM)
            by_dim[k].add(face)
            if k > 0:
                for i in range(len(face)):
                    sub = face[:i] + face[i + 1 :]
                    if sub not in seen:
                        seen.add(sub)
                        stack.append(sub)
        return cls(
            vertices=tuple(vertices),
            faces=tuple(tuple(sorted(fs)) for fs in by_dim),
        )


def _clique_faces(adj, n):
    """All cliques of the graph, grouped by size; asserts none exceed 5."""
    above = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            above[i] |= 1 << j
    levels = [[((i,), adj[i] & above[i]) for i in range(n)]]
    for _ in range(MAX_DIM):
        nxt = []
        for face, cand in levels[-1]:
            m = cand
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                nxt.append((face + (v,), cand & adj[v] & above[v]))
        levels.append(nxt)
    for _face, cand in levels[-1]:
        if cand:
            raise AssertionError("found a simplex above dimension 4")
    return [tuple(face for face, _ in lvl) for lvl in levels]


def build_complex(cfg=None):
    """The boundary complex; cfg=None gives the unresolved complex, a
    ResolutionConfig applies the per-point face removals."""
    verts = labels.DIVISORS
    n = len(verts)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if labels.intersects(verts[i], verts[j], None):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    faces = _clique_faces(adj, n)
    if cfg is not None:
        forbidden = []
        for pt in sorted(cfg.s1, key=lambda p: p.matching):
            g1, g2 = labels.cyclic_divisors_of_point(pt)
            forbidden.append((1 << labels.divisor_index(g1)) | (1 << labels.divisor_index(g2)))
        for pt in sorted(cfg.s2, key=lambda p: p.matching):
            req = 0
            for f in labels.pair_divisors_of_point(pt):
                req |= 1 << labels.divisor_index(f)
            forbidden.append(req)
        filtered = [faces[0]]
        for k in range(1, len(faces)):
            kept = []
            for face in faces[k]:
                mask = 0
                for v in face:
                    mask |= 1 << v
                if all(mask & req != req for req in forbidden):
                    kept.append(face)
            filtered.append(tuple(kept))
        faces = filtered
    return SimplicialComplex(vertices=tuple(verts), faces=tuple(faces))


_EDGE_TYPES = (
    "ee-share-one",
    "ee-complement",
    "ff",
    "gg",
    "ef-disjoint",
    "ef-contained",
    "eg",
    "fg",
)


def edge_census(c):
    """Classify the edges of the unresolved complex into the eight incidence
    types; returns a dict keyed by type name."""
    counts = dict.fromkeys(_EDGE_TYPES, 0)
    for i, j in c.faces[1]:
        a, b = c.vertices[i], c.vertices[j]
        ka, kb = a.kind, b.kind
        if ka == kb == labels.TRIPLE:
            common = len(set(a.data) & set(b.data))
            counts["ee-share-one" if common == 1 else "ee-complement"] += 1
        elif ka == kb == labels.PAIR:
            counts["ff"] += 1
        elif ka == kb == labels.CYCLIC:
            counts["gg"] += 1
        elif {ka, kb} == {labels.TRIPLE, labels.PAIR}:
            t, p = (a, b) if ka == labels.TRIPLE else (b, a)
            inside = len(set(p.data) & set(t.data))
            counts["ef-contained" if inside == 2 else "ef-disjoint"] += 1
        elif {ka, kb} == {labels.TRIPLE, labels.CYCLIC}:
            counts["eg"] += 1
        else:
            counts["fg"] += 1
    return counts


def _boundary_matrix(c, k):
    """The degree-k boundary map as {col: coeff} rows, one per k-face; k = 0
    is the augmentation onto a single column."""
    if k == 0:
        return [{0: 1} for _ in c.faces[0]]
    index = {face: i for i, face in enumerate(c.faces[k - 1])}
    rows = []
    for face in c.faces[k]:
        row = {}
        for i in range(len(face)):
            sub = face[:i] + face[i + 1 :]
            row[index[sub]] = 1 if i % 2 == 0 else -1
        rows.append(row)
    return rows


@dataclass(frozen=True)
class HomologySummary:
    dim: int
    rank: int
    torsion: tuple


def reduced_homology(c):
    """Reduced integral homology in degrees 0..4 from Smith normal forms of
    the boundary matrices."""
    fvec = c.f_vector()
    snfs = []
    for k in range(MAX_DIM + 1):
        if fvec[k]:
            snfs.append(smith_normal_form(_boundary_matrix(c, k)))
        else:
            snfs.append(None)
    out = []
    for k in range(MAX_DIM + 1):
        rank_k = snfs[k].rank if snfs[k] else 0
        above = snfs[k + 1] if k + 1 <= MAX_DIM and snfs[k + 1] else None
        rank_up = above.rank if above else 0
        torsion = tuple(d for d in (above.diagonal if above else ()) if d != 1)
        out.append(
            HomologySummary(dim=k, rank=fvec[k] - rank_k - rank_up, torsion=torsion)
        )
    return out


def homology_report(c):
    """JSON-ready homology report."""
    return {
        "degrees": [
            {"dim": h.dim, "rank": h.rank, "torsion": list(h.torsion)}
            for h in reduced_homology(c)
        ],
        "faces": list(c.f_vector()),
    }
