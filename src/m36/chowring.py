"""Graded Chow quotients for the resolved spaces of six lines.

The ring of any small resolution is the polynomial ring on the 65 boundary
divisors modulo two families of relations: sixty degree-1 combinations coming
from the three-point relations on moduli of four points (pulled back through
restriction maps), and monomial relations from pairs (and, for plane fibers,
triples) of boundary divisors with empty intersection.

The engine works degree by degree.  A monomial is admissible when its support
is a face of the config's boundary complex; everything else is zero by the
monomial relations, so the degree-k piece of the quotient is the span of the
admissible monomials modulo the projections of {linear relation x admissible
monomial of degree k-1}.  Those projections are exact: any product landing on
an inadmissible monomial lies in the monomial ideal.

Every degree from 1 to 4 is built by the same loop: all of its relation rows
go into one integer echelon form with rightmost pivots (so the
lexicographically smallest monomials survive as the basis), which gives the
rank, the reduced rows for normal forms and the torsion certificate of the
whole relation lattice.  The expected rank profile (1, 51, 127+|S2|, 51, 1)
is a theorem; meeting it is asserted, and a computed mismatch raises
VerificationError rather than a report with different numbers.
Torsion-freeness is certified in every degree by the local-prime rank check
of exactla.smith_from_echelon.

RingElement is the free polynomial ring and knows no config.  multiply,
product and power evaluate products in the quotient instead: a product
monomial that is not admissible is zero by the monomial relations, so it is
dropped as soon as it is formed, and since every factor of an admissible
monomial is admissible the result is exactly the free product with its
inadmissible monomials removed.  Normal forms, integrals and restrictions to
exceptional fibers read only admissible monomials, so they take the same
values on either product; the quotient product never expands the free ring,
which is what keeps (K+B)^4 and the psi quartics cheap.

All sparse sums go through two kernels: exactla.submul adds a scaled row
(sums and differences of elements) and _collect sums (monomial, coefficient)
terms (products, relabelings), both dropping zeros.  Normal forms reduce by
the degree's rref with exactla.reduce_row, the same back-substitution that
builds it.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import labels
from .boundarycomplex import build_complex
from .exactla import (
    IntEchelon,
    rank_over_rationals,
    reduce_row,
    smith_from_echelon,
    submul,
)

MAX_DEGREE = 4


class VerificationError(Exception):
    """A theorem-guaranteed quantity came out wrong."""


# --------------------------------------------------------------------------
# ring elements


def _collect(terms):
    """Sum (key, coefficient) pairs into a dict without zero values."""
    out = {}
    for key, c in terms:
        nv = out.get(key, 0) + c
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)
    return out


def _check_degree_cap(a, b):
    """Refuse the product of two nonzero elements beyond degree 4 up front,
    before any term is formed."""
    if a.coeffs and b.coeffs:
        if max(map(len, a.coeffs)) + max(map(len, b.coeffs)) > MAX_DEGREE:
            raise ValueError("product exceeds degree 4")


def _check_monomial(mono):
    if not isinstance(mono, tuple) or len(mono) > MAX_DEGREE:
        raise ValueError("bad monomial %r" % (mono,))
    prev = -1
    for i in mono:
        if not isinstance(i, int) or not 0 <= i < len(labels.DIVISORS) or i < prev:
            raise ValueError("bad monomial %r" % (mono,))
        prev = i


class RingElement:
    """Sparse rational combination of monomials in the 65 boundary divisors.

    Monomial keys are tuples of divisor indices, sorted ascending; mixed
    degrees are allowed, and products beyond degree 4 are refused since they
    cannot carry intersection-theoretic meaning on a fourfold."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for mono, c in (coeffs or {}).items():
            _check_monomial(mono)
            if c:
                clean[mono] = c
        self.coeffs = clean

    @classmethod
    def _raw(cls, coeffs):
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({(): 1})

    @classmethod
    def from_divisor(cls, d):
        return cls._raw({(labels.divisor_index(d),): 1})

    @classmethod
    def from_divisors(cls, divisors):
        return cls._raw(_collect(((labels.divisor_index(d),), 1) for d in divisors))

    def is_zero(self):
        return not self.coeffs

    def degrees(self):
        return sorted({len(m) for m in self.coeffs})

    def homogeneous_degree(self):
        ds = self.degrees()
        if len(ds) != 1:
            raise ValueError("element is not homogeneous (degrees %r)" % (ds,))
        return ds[0]

    def __add__(self, other):
        out = dict(self.coeffs)
        submul(out, other.coeffs, -1)
        return RingElement._raw(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        submul(out, other.coeffs, 1)
        return RingElement._raw(out)

    def __neg__(self):
        return RingElement._raw({m: -c for m, c in self.coeffs.items()})

    def scale(self, s):
        if not s:
            return RingElement.zero()
        return RingElement._raw({m: c * s for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            _check_degree_cap(self, other)
            right = other.coeffs.items()
            return RingElement._raw(
                _collect(
                    (tuple(sorted(ma + mb)), ca * cb)
                    for ma, ca in self.coeffs.items()
                    for mb, cb in right
                )
            )
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = RingElement.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def map_divisors(self, fn):
        """Apply a divisor -> divisor map (a relabeling or the duality)
        monomial-wise."""
        index, divisors = labels.divisor_index, labels.DIVISORS
        return RingElement._raw(
            _collect(
                (tuple(sorted(index(fn(divisors[i])) for i in mono)), c)
                for mono, c in self.coeffs.items()
            )
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for mono in sorted(self.coeffs, key=lambda m: (len(m), m)):
            c = self.coeffs[mono]
            name = "*".join(labels.DIVISORS[i].name() for i in mono) or "1"
            bits.append("%s%s" % ("" if c == 1 and mono else "%s " % c, name))
        return " + ".join(bits)


def apply_perm_element(sigma, e):
    return e.map_divisors(lambda d: labels.apply_perm(sigma, d))


def duality_element(e):
    return e.map_divisors(labels.duality)


# --------------------------------------------------------------------------
# relation generators


_LINEAR_CACHE = None


def linear_relations():
    """The sixty degree-1 relation generators: for each restriction line i,
    spectator mark j, and alternate pairing of the remaining four marks, the
    difference of pulled-back four-point boundary sums.  Config-independent.
    """
    global _LINEAR_CACHE
    if _LINEAR_CACHE is None:
        from . import classes

        gens = []
        for i in labels.LINES:
            for j in labels.LINES:
                if j == i:
                    continue
                a, b, c, d = sorted(set(labels.LINES) - {i, j})
                base = classes.pullback_r(i, (a, b)) + classes.pullback_r(i, (c, d))
                for p, q, r, s in ((a, c, b, d), (a, d, b, c)):
                    alt = classes.pullback_r(i, (p, q)) + classes.pullback_r(i, (r, s))
                    gens.append(base - alt)
        _LINEAR_CACHE = tuple(gens)
    return list(_LINEAR_CACHE)


def _linear_relation_vectors():
    """The generators as {divisor index: coefficient} dicts."""
    out = []
    for g in linear_relations():
        vec = {}
        for mono, c in g.coeffs.items():
            vec[mono[0]] = c
        out.append(vec)
    return out


# --------------------------------------------------------------------------
# admissible monomials


def _positive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _positive_compositions(total - head, parts - 1):
            yield (head,) + tail


def admissible_monomials(complex_, k):
    """Degree-k monomials whose support is a face of the complex, in
    lexicographic order of the sorted index tuples."""
    if k == 0:
        return [()]
    out = []
    for d in range(min(k, MAX_DEGREE + 1)):
        if d + 1 > k:
            break
        for face in complex_.faces[d]:
            for mults in _positive_compositions(k, d + 1):
                mono = []
                for v, m in zip(face, mults):
                    mono.extend([v] * m)
                out.append(tuple(mono))
    out.sort()
    return out


def _insert_sorted(mono, d):
    pos = bisect_right(mono, d)
    return mono[:pos] + (d,) + mono[pos:]


# --------------------------------------------------------------------------
# per-degree elimination


def _row_stream(generators, monomials_lower, index):
    """Deterministic relation-row stream for one degree: multiplier monomials
    in reverse lexicographic order, generators in order.  Rows are
    (id, {col: coeff}) with id = (monomial position, generator position).
    """
    for mpos in range(len(monomials_lower) - 1, -1, -1):
        m = monomials_lower[mpos]
        for gpos, g in enumerate(generators):
            row = {}
            for d, c in g.items():
                col = index.get(_insert_sorted(m, d))
                if col is not None:
                    row[col] = c
            if row:
                yield (mpos, gpos), row


@dataclass
class DegreeData:
    monomials: tuple
    index: dict
    rank: int
    torsion: tuple
    rref: dict
    basis_cols: tuple
    runtime_ms: int = 0


# --------------------------------------------------------------------------
# the table


class GradedQuotientTable:
    """Immutable per-degree quotient data for one resolution config."""

    def __init__(self, config, complex_, degrees, runtime_ms):
        self.config = config
        self.complex = complex_
        self.degrees = degrees
        self.runtime_ms = runtime_ms
        self._functional = None

    @property
    def ranks(self):
        return tuple(dd.rank for dd in self.degrees)

    def admissible_counts(self):
        return tuple(len(dd.monomials) for dd in self.degrees)

    def basis_monomials(self, k):
        dd = self.degrees[k]
        return tuple(dd.monomials[c] for c in dd.basis_cols)

    @property
    def torsion_certified_degrees(self):
        """Every degree carries exact invariant factors, in either mode."""
        return tuple(range(len(self.degrees)))

    @property
    def torsion_free(self):
        """True when every degree has all invariant factors 1."""
        return all(d == 1 for dd in self.degrees for d in dd.torsion)

    def relation_row_stream(self, k):
        """All degree-k relation rows from the sixty linear generators, as
        (id, {col: coeff}) pairs."""
        return _row_stream(
            _linear_relation_vectors(),
            self.degrees[k - 1].monomials,
            self.degrees[k].index,
        )


def _expected_profile(cfg):
    return (1, 51, 127 + len(cfg.s2), 51, 1)


def build_quotient(cfg, mode="two-prime"):
    """Construct the graded quotient table for a resolution config, with rank
    and torsion certified exactly over Z in every degree.

    One loop builds degrees 1 to 4 alike: every relation row of the degree
    goes into one IntEchelon, then rref and smith_from_echelon run once.  The
    rows of degree 1 are the sixty linear generators themselves; every higher
    degree multiplies the degree-1 pivot rows, a basis of the same relation
    lattice, sorted by lead.  Row order changes the cost, not the result:
    the reverse multiplier order and the rows that die on insertion are what
    keep the Euclidean exchanges small.

    mode, "exact" or "two-prime", selects no computation: both run the same
    exact path.  It is validated and otherwise ignored; the label lives in
    the CLI's reports."""
    if mode not in ("exact", "two-prime"):
        raise ValueError("mode must be 'exact' or 'two-prime'")
    t0 = time.monotonic()
    expected = _expected_profile(cfg)
    complex_ = build_complex(cfg)
    monomials = [admissible_monomials(complex_, k) for k in range(MAX_DEGREE + 1)]
    degrees = [
        DegreeData(
            monomials=tuple(monomials[0]),
            index={(): 0},
            rank=1,
            torsion=(),
            rref={},
            basis_cols=(0,),
        )
    ]
    generators = _linear_relation_vectors()
    for k in range(1, MAX_DEGREE + 1):
        tk = time.monotonic()
        ncols = len(monomials[k])
        index = {m: i for i, m in enumerate(monomials[k])}
        ech = IntEchelon()
        for _rid, row in _row_stream(generators, monomials[k - 1], index):
            ech.insert(row)
        rref = ech.rref()
        degrees.append(
            DegreeData(
                monomials=tuple(monomials[k]),
                index=index,
                rank=ncols - ech.rank,
                torsion=smith_from_echelon(ech).diagonal,
                rref=rref,
                basis_cols=tuple(c for c in range(ncols) if c not in rref),
                runtime_ms=int((time.monotonic() - tk) * 1000),
            )
        )
        if k == 1:
            generators = [ech.pivots[lead] for lead in sorted(ech.pivots)]

    table = GradedQuotientTable(
        config=cfg,
        complex_=complex_,
        degrees=degrees,
        runtime_ms=int((time.monotonic() - t0) * 1000),
    )
    got = table.ranks
    if got != expected:
        raise VerificationError(
            "rank profile %r does not match the theorem %r for %s"
            % (got, expected, cfg.name())
        )
    if not table.torsion_free:
        raise VerificationError(
            "torsion appeared in degrees %r for %s"
            % (
                [k for k, dd in enumerate(degrees) if any(d != 1 for d in dd.torsion)],
                cfg.name(),
            )
        )
    return table


_BUILT = {}


def table(cfg):
    """The table of cfg, built on first use and kept for the process.  The
    CLI, the acceptance criteria and the test fixtures all read this cache;
    build_quotient itself never caches."""
    if cfg not in _BUILT:
        _BUILT[cfg] = build_quotient(cfg)
    return _BUILT[cfg]


def ranks_report(t, mode):
    """JSON-ready rank/torsion report, labeled with mode."""
    return {
        "config": t.config.to_json_dict(),
        "mode": mode,
        "ranks": list(t.ranks),
        "torsion_free": t.torsion_free,
        "torsion_certified_degrees": list(t.torsion_certified_degrees),
        "admissible_monomials": list(t.admissible_counts()),
        "runtime_ms": t.runtime_ms,
    }


# --------------------------------------------------------------------------
# queries


def normal_form(e, t):
    """Canonical representative of e on the chosen basis monomials.  Each
    monomial has one column, so the degree-k terms of e are a row as they
    stand."""
    out = {}
    for k in e.degrees():
        dd = t.degrees[k]
        row = {dd.index[m]: c for m, c in e.coeffs.items() if m in dd.index}
        for col, c in reduce_row(row, dd.rref).items():
            out[dd.monomials[col]] = c
    return RingElement(out)


def multiply(a, b, t):
    """The product a*b in the ring of t: the free product without its
    inadmissible monomials, which are dropped as they form.  Like the free
    product it refuses products beyond degree 4."""
    _check_degree_cap(a, b)
    indexes = [dd.index for dd in t.degrees]
    right = [(mb, cb) for mb, cb in b.coeffs.items() if mb in indexes[len(mb)]]
    return RingElement._raw(
        _collect(
            (mono, ca * cb)
            for ma, ca in a.coeffs.items()
            if ma in indexes[len(ma)]
            for mb, cb in right
            if (mono := tuple(sorted(ma + mb))) in indexes[len(mono)]
        )
    )


def product(factors, t):
    """The product of the factors in the ring of t, taken left to right."""
    out = RingElement.one()
    for f in factors:
        out = multiply(out, f, t)
    return out


def power(e, n, t):
    """e**n in the ring of t."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    return product((e,) * n, t)


def is_zero_in(e, t):
    return normal_form(e, t).is_zero()


def _pair(func, e, index):
    """The functional func on the columns of index applied to e; monomials
    outside index contribute nothing."""
    return Fraction(
        sum(c * func.get(index[m], 0) for m, c in e.coeffs.items() if m in index)
    )


def _integration_functional(t):
    """The exact integer vector of monomial integrals in degree 4: the
    functional annihilating the relation span (unique up to scale, since
    degree 4 has corank 1), scaled to 1 on the normalizing psi monomial
    psi[5,6]^2 psi[6,5]^2 of the published table.  It must come out
    integral, which is to say the primitive functional gives +-1 there."""
    if t._functional is not None:
        return t._functional
    from . import classes

    dd = t.degrees[4]
    if len(dd.basis_cols) != 1:
        raise VerificationError("degree 4 does not have corank 1")
    (j0,) = dd.basis_cols
    func = {j0: 1}
    func.update((lead, -row[j0]) for lead, row in dd.rref.items() if j0 in row)
    a, b = classes.psi(5, 6), classes.psi(6, 5)
    total = _pair(func, product((a, a, b, b), t), dd.index)
    if not total or any((v / total).denominator != 1 for v in func.values()):
        raise VerificationError(
            "no integral functional is 1 on the normalizing psi-monomial "
            "(the unscaled one gives %r there)" % (total,)
        )
    t._functional = {c: int(v / total) for c, v in func.items()}
    return t._functional


def integrate(e, t):
    """Degree of a homogeneous degree-4 class, as an exact rational."""
    if e.is_zero():
        return Fraction(0)
    if e.degrees() != [4]:
        raise ValueError("integrand must be homogeneous of degree 4")
    return _pair(_integration_functional(t), e, t.degrees[4].index)


# --------------------------------------------------------------------------
# exceptional fibers


@dataclass(frozen=True)
class FiberValue:
    """Element of the Chow ring of an exceptional fiber: coefficients of
    (1, p) on a line, (1, h, h^2) on a plane."""

    point: labels.SingularPointId
    kind: str
    coeffs: tuple

    def is_zero(self):
        return not any(self.coeffs)

    def _match(self, other):
        if self.point != other.point or self.kind != other.kind:
            raise ValueError("fiber values live on different fibers")

    def __add__(self, other):
        self._match(other)
        return FiberValue(
            self.point,
            self.kind,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __mul__(self, other):
        self._match(other)
        cap = len(self.coeffs)
        out = [0] * cap
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b and i + j < cap:
                    out[i + j] += a * b
        return FiberValue(self.point, self.kind, tuple(out))

    def __str__(self):
        var = "p" if self.kind == labels.FIBER_P1 else "h"
        bits = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else "%s*" % (c,))
                bits.append("%s%s%s" % (head, var, "" if k == 1 else "^%d" % k))
        return " + ".join(bits) if bits else "0"


def _fiber_generator_image(d, pt, kind):
    """Image of one boundary divisor in the fiber ring, as the coefficient of
    the hyperplane variable (everything maps to a multiple of p resp. h)."""
    if d.kind == labels.TRIPLE:
        return 0
    if d.kind == labels.PAIR:
        hit = d.data in pt.matching
        if not hit:
            return 0
        return -1 if kind == labels.FIBER_P1 else 1
    hit = labels.matching_of_cyclic(d) == pt
    if not hit:
        return 0
    return 1 if kind == labels.FIBER_P1 else -1


def restrict_to_fiber(e, pt, t):
    """Restriction of a class to the exceptional fiber over one singular
    point, using the fiber kind assigned by t's config."""
    if pt not in labels.SINGULAR_POINTS:
        raise ValueError("unknown singular point %r" % (pt,))
    kind = t.config.fiber(pt)
    cap = 2 if kind == labels.FIBER_P1 else 3
    coeffs = [0] * cap
    for mono, c in e.coeffs.items():
        k = len(mono)
        if k >= cap:
            continue
        scalar = 1
        for i in mono:
            scalar *= _fiber_generator_image(labels.DIVISORS[i], pt, kind)
            if not scalar:
                break
        if scalar:
            coeffs[k] += c * scalar
    return FiberValue(point=pt, kind=kind, coeffs=tuple(coeffs))


def m36_subring_membership(e, t):
    """Whether a homogeneous class on the all-line-fiber resolution descends
    to the singular space: automatic except in degree 1, where it means
    vanishing restriction to all fifteen exceptional lines."""
    if t.config != labels.config_all_p1():
        raise ValueError("subring test requires the all-line-fiber table")
    k = e.homogeneous_degree()
    if k != 1:
        return True
    return all(
        restrict_to_fiber(e, pt, t).is_zero() for pt in labels.SINGULAR_POINTS
    )


def m36_chow_ranks(t):
    """Chow ranks of the singular space: degree 1 is cut out of the rank-51
    group by the fifteen line restrictions; other degrees match the
    resolution."""
    if t.config != labels.config_all_p1():
        raise ValueError("requires the all-line-fiber table")
    basis = t.basis_monomials(1)
    rows = []
    for pt in labels.SINGULAR_POINTS:
        row = {}
        for j, mono in enumerate(basis):
            v = _fiber_generator_image(labels.DIVISORS[mono[0]], pt, labels.FIBER_P1)
            if v:
                row[j] = v
        rows.append(row)
    r = rank_over_rationals(rows)
    if r != 15:
        raise VerificationError(
            "line-restriction functionals have rank %d, expected 15" % r
        )
    ranks = list(t.ranks)
    ranks[1] -= r
    return tuple(ranks)


# --------------------------------------------------------------------------
# blowup oracle


_SURFACE_RANKS = {
    "P2": (1, 1, 1),
    "Bl4P2": (1, 5, 1),
    "P1xP1": (1, 2, 1),
    "Bl2P1xP1": (1, 4, 1),
    "Bl3P1xP1": (1, 5, 1),
}

BLOWUP_TOWER = (
    ((4, "P2"), (4, "Bl4P2")),
    ((4, "P1xP1"),),
    ((3, "Bl2P1xP1"), (3, "Bl3P1xP1")),
    ((1, "Bl4P2"),),
    ((30, "P1xP1"),),
)


def blowup_rank_recursion():
    """Chow ranks of the resolution by the blowup tower over the product of
    two planes: each codimension-2 center contributes its own Chow ranks,
    shifted by one degree."""
    ranks = [1, 2, 3, 2, 1]
    for step in BLOWUP_TOWER:
        for count, kind in step:
            z = _SURFACE_RANKS[kind]
            for k in range(1, 5):
                if k - 1 < len(z):
                    ranks[k] += count * z[k - 1]
    return tuple(ranks)
