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

import functools
from dataclasses import dataclass
from itertools import combinations

from . import labels
from .exactla import smith_normal_form

MAX_DIM = 4


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces listed per dimension as sorted tuples of vertex indices."""

    vertices: tuple
    faces: tuple  # faces[k] = tuple of (k+1)-vertex index tuples, k = 0..4

    def f_vector(self):
        return tuple(len(fs) for fs in self.faces)


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


def flag_complex(vertices, meets):
    """The flag complex on vertices of the graph whose edges join the
    distinct vertices a, b with meets(a, b)."""
    n = len(vertices)
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if meets(vertices[i], vertices[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return SimplicialComplex(tuple(vertices), tuple(_clique_faces(adj, n)))


@functools.cache
def _unresolved():
    """The unresolved complex and the vertex mask of each of its faces, per
    dimension, built once per process: they depend on no config."""
    c = flag_complex(labels.DIVISORS, labels.intersects)
    masks = tuple(tuple(sum(1 << v for v in face) for face in fs) for fs in c.faces)
    return c, masks


def build_complex(cfg=None):
    """The boundary complex; cfg=None gives the unresolved complex, a
    ResolutionConfig applies the per-point face removals to it."""
    unresolved, masks = _unresolved()
    if cfg is None:
        return unresolved
    forbidden = []
    for pt in sorted(cfg.s1, key=lambda p: p.matching):
        g1, g2 = labels.cyclic_divisors_of_point(pt)
        forbidden.append(
            (1 << labels.divisor_index(g1)) | (1 << labels.divisor_index(g2))
        )
    for pt in sorted(cfg.s2, key=lambda p: p.matching):
        req = 0
        for f in labels.pair_divisors_of_point(pt):
            req |= 1 << labels.divisor_index(f)
        forbidden.append(req)
    faces = unresolved.faces
    filtered = [faces[0]]
    for k in range(1, len(faces)):
        filtered.append(
            tuple(
                face
                for face, mask in zip(faces[k], masks[k])
                if all(mask & req != req for req in forbidden)
            )
        )
    return SimplicialComplex(unresolved.vertices, tuple(filtered))


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
    snfs = [smith_normal_form(_boundary_matrix(c, k)) for k in range(MAX_DIM + 1)]
    snfs.append(())  # no faces above dimension 4
    out = []
    for k in range(MAX_DIM + 1):
        above = snfs[k + 1]
        torsion = tuple(d for d in above if d != 1)
        out.append(
            HomologySummary(
                dim=k, rank=fvec[k] - len(snfs[k]) - len(above), torsion=torsion
            )
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
