"""Labels for the 65 boundary divisors, the 15 singular points, and the
group actions on them.

Divisor kinds:
  Triple       D_{ijk,lmn}   indexed by the first 3-subset; D_{lmn,ijk} is a
                             different divisor.  20 of them.
  Pair         D_{ij,klmn}   indexed by the 2-subset.  15.
  CyclicTriple D_{ij,kl,mn}  an ordered triple of disjoint pairs covering
                             {1..6}, up to cyclic rotation.  Reversing the
                             rotation gives the distinct "partner" divisor.
                             30 of them.

The canonical rotation of a cyclic triple starts with its lexicographically
smallest pair, so D_{34,56,12} and D_{12,34,56} are the same id while
D_{12,56,34} is the partner.  The global order is Triples, then Pairs, then
CyclicTriples, lex within each kind; everything downstream (monomial orders,
matrices, reports) inherits determinism from this list.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

LINES = (1, 2, 3, 4, 5, 6)
TRIPLE = "triple"
PAIR = "pair"
CYCLIC = "cyclic"


def _canonical_rotation(pairs):
    ps = tuple(tuple(sorted(p)) for p in pairs)
    flat = [x for p in ps for x in p]
    if sorted(flat) != list(LINES):
        raise ValueError("pairs must be disjoint and cover {1..6}: %r" % (pairs,))
    rotations = [ps, ps[1:] + ps[:1], ps[2:] + ps[:2]]
    return min(rotations)


@dataclass(frozen=True)
class DivisorId:
    kind: str
    data: tuple

    def __post_init__(self):
        if self.kind == TRIPLE:
            if (
                len(self.data) != 3
                or tuple(sorted(set(self.data))) != self.data
                or not set(self.data) <= set(LINES)
            ):
                raise ValueError("bad triple data %r" % (self.data,))
        elif self.kind == PAIR:
            if (
                len(self.data) != 2
                or tuple(sorted(set(self.data))) != self.data
                or not set(self.data) <= set(LINES)
            ):
                raise ValueError("bad pair data %r" % (self.data,))
        elif self.kind == CYCLIC:
            if self.data != _canonical_rotation(self.data):
                raise ValueError("cyclic data not canonical %r" % (self.data,))
        else:
            raise ValueError("unknown kind %r" % (self.kind,))

    def name(self):
        if self.kind == TRIPLE:
            return "E[%d%d%d]" % self.data
        if self.kind == PAIR:
            return "F[%d%d]" % self.data
        return "G[%s]" % ",".join("%d%d" % p for p in self.data)

    def __repr__(self):
        return self.name()


def triple(indices):
    """Triple divisor from its first 3-subset."""
    return DivisorId(TRIPLE, tuple(sorted(indices)))


def pair(indices):
    return DivisorId(PAIR, tuple(sorted(indices)))


def cyclic(p1, p2, p3):
    """Cyclic-triple divisor; any rotation of the three pairs is accepted."""
    return DivisorId(CYCLIC, _canonical_rotation((p1, p2, p3)))


def cyclic_partner(d):
    """The same three pairs in the reversed rotation."""
    a, b, c = d.data
    return cyclic(a, c, b)


def enumerate_divisors():
    """All 65 divisor ids in the global order (20 Triple, 15 Pair, 30 Cyclic)."""
    out = [triple(t) for t in itertools.combinations(LINES, 3)]
    out.extend(pair(p) for p in itertools.combinations(LINES, 2))
    cycs = set()
    for perm in itertools.permutations(LINES):
        ps = (perm[0:2], perm[2:4], perm[4:6])
        cycs.add(_canonical_rotation(ps))
    out.extend(DivisorId(CYCLIC, c) for c in sorted(cycs))
    return out


DIVISORS = enumerate_divisors()
DIVISOR_INDEX = {d: i for i, d in enumerate(DIVISORS)}


def divisor_index(d):
    return DIVISOR_INDEX[d]


# ---------------------------------------------------------------------------
# singular points and resolution configs

@dataclass(frozen=True)
class SingularPointId:
    """A perfect matching {ij, kl, mn} of {1..6}; there are 15."""
    matching: tuple  # three sorted pairs, sorted among themselves

    def name(self):
        return "P[%s]" % ",".join("%d%d" % p for p in self.matching)

    def __repr__(self):
        return self.name()


def singular_point(pairs):
    ps = tuple(sorted(tuple(sorted(p)) for p in pairs))
    flat = [x for p in ps for x in p]
    if sorted(flat) != list(LINES):
        raise ValueError("not a perfect matching: %r" % (pairs,))
    return SingularPointId(ps)


def all_singular_points():
    pts = set()
    for perm in itertools.permutations(LINES):
        pts.add(singular_point((perm[0:2], perm[2:4], perm[4:6])))
    return sorted(pts, key=lambda p: p.matching)


SINGULAR_POINTS = all_singular_points()

FIBER_P1 = "P1"
FIBER_P2 = "P2"


@dataclass(frozen=True)
class ResolutionConfig:
    """Assignment of each singular point to a P^1 (S1) or P^2 (S2) fiber."""
    s2: frozenset

    def __post_init__(self):
        for p in self.s2:
            if p not in SINGULAR_POINTS:
                raise ValueError("unknown singular point %r" % (p,))

    @property
    def s1(self):
        return frozenset(SINGULAR_POINTS) - self.s2

    def fiber(self, point):
        return FIBER_P2 if point in self.s2 else FIBER_P1

    def name(self):
        if not self.s2:
            return "all-P1"
        if len(self.s2) == 15:
            return "all-P2"
        return "mixed-%d" % len(self.s2)

    def to_json_dict(self):
        return {"S2": sorted(["%d%d" % p for p in pt.matching] for pt in self.s2)}

    def __repr__(self):
        return "ResolutionConfig(%s)" % self.name()


def config_all_p1():
    return ResolutionConfig(frozenset())


def config_all_p2():
    return ResolutionConfig(frozenset(SINGULAR_POINTS))


def config_from_json_dict(obj):
    """Parse {"S2": [["12","34","56"], ...]}; unlisted points default to P1."""
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(obj) - {"S2"}
    if unknown:
        raise ValueError("unknown config keys: %s" % sorted(unknown))
    entries = obj.get("S2", [])
    if not isinstance(entries, list):
        raise ValueError('"S2" must be a list of matchings')
    pts = []
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError("matching must be a list of three pairs: %r" % (entry,))
        ps = []
        for s in entry:
            if not isinstance(s, str) or len(s) != 2 or not s.isdigit():
                raise ValueError("pair must be a 2-digit string: %r" % (s,))
            ps.append((int(s[0]), int(s[1])))
        pt = singular_point(ps)  # raises if the pairs overlap
        if pt in pts:
            raise ValueError("matching listed twice: %r" % (entry,))
        pts.append(pt)
    return ResolutionConfig(frozenset(pts))


def load_config(path):
    with open(path) as fh:
        return config_from_json_dict(json.load(fh))


def matching_of_cyclic(d):
    """The singular point sitting on a cyclic-triple divisor."""
    if d.kind != CYCLIC:
        raise ValueError("not a cyclic triple: %r" % (d,))
    return singular_point(d.data)


def pair_divisors_of_point(pt):
    """The three Pair divisors through a singular point."""
    return tuple(pair(p) for p in pt.matching)


def cyclic_divisors_of_point(pt):
    """The two partner cyclic-triple divisors through a singular point."""
    a, b, c = pt.matching
    return (cyclic(a, b, c), cyclic(a, c, b))


# ---------------------------------------------------------------------------
# the symmetric group action and the duality involution

IDENTITY_PERM = LINES


def perm_from_mapping(mapping):
    """Permutation of {1..6} from a dict i -> sigma(i); omitted points are fixed."""
    sigma = tuple(mapping.get(i, i) for i in LINES)
    if sorted(sigma) != list(LINES):
        raise ValueError("not a permutation: %r" % (mapping,))
    return sigma


def transposition(a, b):
    return perm_from_mapping({a: b, b: a})


def perm_compose(sigma, tau):
    """sigma after tau."""
    return tuple(sigma[tau[i - 1] - 1] for i in LINES)


def perm_inverse(sigma):
    inv = [0] * 6
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def all_permutations():
    return list(itertools.permutations(LINES))


# a generating set of S6 used by equivariance property tests
S6_GENERATORS = (transposition(1, 2), (2, 3, 4, 5, 6, 1))


def apply_perm(sigma, d):
    """Relabel a divisor id through sigma and re-canonicalize."""
    if d.kind == TRIPLE:
        return triple(sigma[i - 1] for i in d.data)
    if d.kind == PAIR:
        return pair(sigma[i - 1] for i in d.data)
    return cyclic(*[tuple(sigma[i - 1] for i in p) for p in d.data])


def apply_perm_point(sigma, pt):
    return singular_point(tuple(tuple(sigma[i - 1] for i in p) for p in pt.matching))


def apply_perm_config(sigma, cfg):
    return ResolutionConfig(frozenset(apply_perm_point(sigma, p) for p in cfg.s2))


def duality(d):
    """The duality involution: complements a Triple, swaps the first two pairs
    of a CyclicTriple, fixes Pair divisors."""
    if d.kind == TRIPLE:
        return triple(set(LINES) - set(d.data))
    if d.kind == PAIR:
        return d
    a, b, c = d.data
    return cyclic(b, a, c)


# ---------------------------------------------------------------------------
# intersection predicates (which products of distinct divisors vanish)

def intersects(a, b, cfg=None):
    """Whether two distinct boundary divisors meet.

    cfg=None asks about the unresolved space, where all 15 singular points are
    present and the partner cyclic triples D_{ij,kl,mn}, D_{ij,mn,kl} meet (at
    the singular point).  With a config, partners meet only when their point
    has a P^2 fiber.
    """
    if a == b:
        raise ValueError("intersects is about distinct divisors; got %r twice" % (a,))
    if a.kind == TRIPLE and b.kind == TRIPLE:
        return len(set(a.data) & set(b.data)) != 2
    if a.kind == PAIR and b.kind == PAIR:
        return len(set(a.data) & set(b.data)) != 1
    if a.kind == CYCLIC and b.kind == CYCLIC:
        if set(a.data) != set(b.data):
            return False
        # partners through the same singular point
        if cfg is None:
            return True
        return cfg.fiber(matching_of_cyclic(a)) == FIBER_P2
    rank = {TRIPLE: 0, PAIR: 1, CYCLIC: 2}
    if rank[a.kind] > rank[b.kind]:
        a, b = b, a
    # now ordered: triple-pair, triple-cyclic, or pair-cyclic
    if a.kind == TRIPLE and b.kind == PAIR:
        return len(set(a.data) & set(b.data)) != 1
    if a.kind == TRIPLE and b.kind == CYCLIC:
        first3 = set(a.data)
        ps = b.data
        for r in range(3):
            p, q = set(ps[r]), ps[(r + 1) % 3]
            if p <= first3 and (first3 - p) <= set(q):
                return True
        return False
    if a.kind == PAIR and b.kind == CYCLIC:
        return a.data in b.data
    raise AssertionError("unreachable")


def s2_triple_relations(cfg):
    """For each P^2-fiber point, the triple of Pair divisors whose product
    vanishes; sorted deterministically."""
    out = []
    for pt in sorted(cfg.s2, key=lambda p: p.matching):
        out.append(frozenset(pair_divisors_of_point(pt)))
    return out
