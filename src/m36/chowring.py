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

Ranks and torsion are certified per degree by integer echelon forms with
rightmost pivots (so the lexicographically smallest monomials survive as the
basis).  The expected rank profile (1, 51, 127+|S2|, 51, 1) is a theorem;
meeting it is asserted, and a computed mismatch raises VerificationError
rather than a report with different numbers.  Torsion-freeness is certified
in every degree by the local-prime rank check of exactla.smith_from_echelon.

RingElement is the free polynomial ring and knows no config.  multiply,
product and power evaluate products in the quotient instead: a product monomial that is
not admissible is zero by the monomial relations, so it is dropped as soon as
it is formed, and since every factor of an admissible monomial is admissible
the result is exactly the free product with its inadmissible monomials
removed.  Normal forms, integrals and restrictions to exceptional fibers read
only admissible monomials, so they take the same values on either product;
the quotient product never expands the free ring, which is what keeps
(K+B)^4 and the psi quartics cheap.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from . import labels
from .boundarycomplex import build_complex
from .exactla import IntEchelon, smith_from_echelon

MAX_DEGREE = 4


class VerificationError(Exception):
    """A theorem-guaranteed quantity came out wrong."""


# --------------------------------------------------------------------------
# ring elements


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
        out = {}
        for d in divisors:
            key = (labels.divisor_index(d),)
            out[key] = out.get(key, 0) + 1
        return cls._raw({k: v for k, v in out.items() if v})

    def is_zero(self):
        return not self.coeffs

    def degrees(self):
        return sorted({len(m) for m in self.coeffs})

    def homogeneous_degree(self):
        ds = self.degrees()
        if len(ds) != 1:
            raise ValueError("element is not homogeneous (degrees %r)" % (ds,))
        return ds[0]

    def homogeneous_part(self, k):
        return RingElement._raw(
            {m: c for m, c in self.coeffs.items() if len(m) == k}
        )

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            nv = out.get(m, 0) + c
            if nv:
                out[m] = nv
            else:
                del out[m]
        return RingElement._raw(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            nv = out.get(m, 0) - c
            if nv:
                out[m] = nv
            else:
                del out[m]
        return RingElement._raw(out)

    def __neg__(self):
        return RingElement._raw({m: -c for m, c in self.coeffs.items()})

    def scale(self, s):
        if not s:
            return RingElement.zero()
        return RingElement._raw({m: c * s for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            out = {}
            for ma, ca in self.coeffs.items():
                for mb, cb in other.coeffs.items():
                    if len(ma) + len(mb) > MAX_DEGREE:
                        raise ValueError("product exceeds degree 4")
                    mono = tuple(sorted(ma + mb))
                    nv = out.get(mono, 0) + ca * cb
                    if nv:
                        out[mono] = nv
                    else:
                        del out[mono]
            return RingElement._raw(out)
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
        out = {}
        for mono, c in self.coeffs.items():
            new = tuple(
                sorted(
                    labels.divisor_index(fn(labels.DIVISORS[i])) for i in mono
                )
            )
            nv = out.get(new, 0) + c
            if nv:
                out[new] = nv
            else:
                del out[new]
        return RingElement._raw(out)

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


def multiplicative_relation_generators(cfg):
    """Square-free monomials that vanish in the ring of cfg: quadratic ones
    from disjoint divisor pairs, cubic ones from plane-fiber triples."""
    out = []
    ds = labels.DIVISORS
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            if not labels.intersects(ds[i], ds[j], cfg):
                out.append((i, j))
    for rel in labels.s2_triple_relations(cfg):
        out.append(tuple(sorted(labels.divisor_index(d) for d in rel)))
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


def admissible_count_formula(f_vector, k):
    """Independent count of the degree-k admissible monomials from the face
    numbers alone: each d-face supports C(k-1, d) multisets of size k."""
    if k == 0:
        return 1
    return sum(f_vector[d] * comb(k - 1, d) for d in range(MAX_DEGREE + 1))


def _insert_sorted(mono, d):
    pos = bisect_right(mono, d)
    return mono[:pos] + (d,) + mono[pos:]


# --------------------------------------------------------------------------
# per-degree elimination


def _reduce_row(row, rref):
    """Reduce a {col: coeff} dict by fully back-reduced rows; the result is
    supported on non-pivot columns only."""
    out = dict(row)
    for c in [c for c in out if c in rref]:
        coeff = out.pop(c)
        if not coeff:
            continue
        for col, v in rref[c].items():
            nv = out.get(col, 0) - coeff * v
            if nv:
                out[col] = nv
            else:
                del out[col]
    return out


def _row_stream(basis_vectors, monomials_lower, index):
    """Deterministic relation-row stream for one degree: multiplier monomials
    in reverse lexicographic order, lattice-basis generators in order.  Rows
    are ({col: coeff}, id) with id = (monomial position, generator position).
    """
    for mpos in range(len(monomials_lower) - 1, -1, -1):
        m = monomials_lower[mpos]
        for gpos, g in enumerate(basis_vectors):
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


def _exact_degree(ncols, stream, expected_rank):
    """Exact integer elimination with a verification tail: once the expected
    rank is reached the remaining rows are checked to lie in the pivot span
    (cheap, since back-reduced rows have support 1 + corank); any row that
    fails is inserted for real, which will surface as a rank mismatch."""
    ech = IntEchelon(reduce_content=False)
    rref = None
    for _rid, row in stream:
        if ech.rank < expected_rank:
            ech.insert(row)
            continue
        if rref is None:
            rref = ech.rref()
        if _reduce_row(row, rref):
            ech.insert(row)
            rref = None
    if rref is None:
        rref = ech.rref()
    return ech, rref


# --------------------------------------------------------------------------
# the table


class GradedQuotientTable:
    """Immutable per-degree quotient data for one resolution config."""

    def __init__(self, config, mode, complex_, degrees, lattice_basis, runtime_ms):
        self.config = config
        self.mode = mode
        self.complex = complex_
        self.degrees = degrees
        self._lattice_basis = lattice_basis
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

    def relation_row_stream(self, k, generators="lattice"):
        """All degree-k relation rows as ({col: coeff}, id) pairs; with
        generators="full" the sixty original generators are used instead of
        the fourteen lattice-basis rows."""
        lower = self.degrees[k - 1].monomials
        index = self.degrees[k].index
        if generators == "lattice":
            vecs = self._lattice_basis
        else:
            vecs = _linear_relation_vectors()
        return _row_stream(vecs, lower, index)


def _expected_profile(cfg):
    return (1, 51, 127 + len(cfg.s2), 51, 1)


def build_quotient(cfg, mode="two-prime"):
    """Construct the graded quotient table for a resolution config, with rank
    and torsion certified exactly over Z in every degree.

    mode, "exact" or "two-prime", selects no computation: both run the same
    exact path, and the value is kept as a label for the reports."""
    if mode not in ("exact", "two-prime"):
        raise ValueError("mode must be 'exact' or 'two-prime'")
    t0 = time.monotonic()
    expected = _expected_profile(cfg)
    complex_ = build_complex(cfg)
    monomials = {k: admissible_monomials(complex_, k) for k in range(MAX_DEGREE + 1)}
    indexes = {
        k: {m: i for i, m in enumerate(monomials[k])} for k in range(MAX_DEGREE + 1)
    }

    degrees = [
        DegreeData(
            monomials=tuple(monomials[0]),
            index=indexes[0],
            rank=1,
            torsion=(),
            rref={},
            basis_cols=(0,),
        )
    ]

    # degree 1: echelon the sixty generators directly; the pivot rows form a
    # lattice basis reused as the generator set in higher degrees
    t1 = time.monotonic()
    gen_vecs = _linear_relation_vectors()
    ech1 = IntEchelon(reduce_content=False)
    for vec in gen_vecs:
        ech1.insert(dict(vec))
    lattice_basis = [dict(ech1.pivots[L]) for L in sorted(ech1.pivots)]
    rref1 = ech1.rref()
    tor1 = smith_from_echelon(ech1).diagonal
    dd1 = DegreeData(
        monomials=tuple(monomials[1]),
        index=indexes[1],
        rank=65 - ech1.rank,
        torsion=tor1,
        rref=rref1,
        basis_cols=tuple(c for c in range(65) if c not in rref1),
        runtime_ms=int((time.monotonic() - t1) * 1000),
    )
    degrees.append(dd1)

    for k in range(2, MAX_DEGREE + 1):
        tk = time.monotonic()
        ncols = len(monomials[k])
        expected_rank = ncols - expected[k]
        stream = _row_stream(lattice_basis, monomials[k - 1], indexes[k])
        ech, rref = _exact_degree(ncols, stream, expected_rank)
        dd = DegreeData(
            monomials=tuple(monomials[k]),
            index=indexes[k],
            rank=ncols - ech.rank,
            torsion=smith_from_echelon(ech).diagonal,
            rref=rref,
            basis_cols=tuple(c for c in range(ncols) if c not in rref),
        )
        dd.runtime_ms = int((time.monotonic() - tk) * 1000)
        degrees.append(dd)

    table = GradedQuotientTable(
        config=cfg,
        mode=mode,
        complex_=complex_,
        degrees=degrees,
        lattice_basis=lattice_basis,
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


def ranks_report(t, mode=None):
    """JSON-ready rank/torsion report, labeled with mode (default: the label
    t was built with)."""
    return {
        "config": t.config.to_json_dict(),
        "mode": t.mode if mode is None else mode,
        "ranks": list(t.ranks),
        "torsion_free": t.torsion_free,
        "torsion_certified_degrees": list(t.torsion_certified_degrees),
        "admissible_monomials": list(t.admissible_counts()),
        "runtime_ms": t.runtime_ms,
    }


# --------------------------------------------------------------------------
# queries


def normal_form(e, t):
    """Canonical representative of e on the chosen basis monomials."""
    out = {}
    for k in e.degrees():
        dd = t.degrees[k]
        vec = {}
        for mono, c in e.homogeneous_part(k).coeffs.items():
            col = dd.index.get(mono)
            if col is not None:
                nv = vec.get(col, 0) + c
                if nv:
                    vec[col] = nv
                else:
                    del vec[col]
        red = _reduce_row(vec, dd.rref)
        for col, c in red.items():
            out[dd.monomials[col]] = c
    return RingElement(out)


def multiply(a, b, t):
    """The product a*b in the ring of t: the free product without its
    inadmissible monomials, which are dropped as they form.  Like the free
    product it refuses products beyond degree 4."""
    if not a.coeffs or not b.coeffs:
        return RingElement.zero()
    if max(map(len, a.coeffs)) + max(map(len, b.coeffs)) > MAX_DEGREE:
        raise ValueError("product exceeds degree 4")
    indexes = [dd.index for dd in t.degrees]
    right = [(mb, cb) for mb, cb in b.coeffs.items() if mb in indexes[len(mb)]]
    out = {}
    for ma, ca in a.coeffs.items():
        if ma not in indexes[len(ma)]:
            continue
        for mb, cb in right:
            mono = tuple(sorted(ma + mb))
            if mono not in indexes[len(mono)]:
                continue
            nv = out.get(mono, 0) + ca * cb
            if nv:
                out[mono] = nv
            else:
                del out[mono]
    return RingElement._raw(out)


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


def _integration_functional(t):
    """The exact integer vector of monomial integrals in degree 4: the unique
    (up to sign) primitive functional annihilating the relation span, with
    the sign pinned by the published psi-number normalization."""
    if t._functional is not None:
        return t._functional
    from . import classes

    dd = t.degrees[4]
    rref = dd.rref
    ncols = len(dd.monomials)
    free = [c for c in range(ncols) if c not in rref]
    if len(free) != 1:
        raise VerificationError("degree 4 does not have corank 1")
    j0 = free[0]
    func = {j0: Fraction(1)}
    for lead, row in rref.items():
        v = row.get(j0)
        if v:
            func[lead] = -Fraction(v)
    denom = 1
    for v in func.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = {c: int(v * denom) for c, v in func.items()}
    content = 0
    for v in ints.values():
        content = gcd(content, v)
    if content > 1:
        ints = {c: v // content for c, v in ints.items()}
    a, b = classes.psi(5, 6), classes.psi(6, 5)
    norm = product((a, a, b, b), t)
    total = 0
    for mono, coeff in norm.coeffs.items():
        col = dd.index.get(mono)
        if col is not None:
            total += coeff * ints.get(col, 0)
    if total not in (1, -1):
        raise VerificationError(
            "primitive functional gives %r on the normalizing psi-monomial" % (total,)
        )
    if total == -1:
        ints = {c: -v for c, v in ints.items()}
    t._functional = ints
    return ints


def integrate(e, t):
    """Degree of a homogeneous degree-4 class, as an exact rational."""
    if e.is_zero():
        return Fraction(0)
    if e.degrees() != [4]:
        raise ValueError("integrand must be homogeneous of degree 4")
    func = _integration_functional(t)
    dd = t.degrees[4]
    total = Fraction(0)
    for mono, coeff in e.coeffs.items():
        col = dd.index.get(mono)
        if col is not None:
            v = func.get(col)
            if v:
                total += coeff * v
    return total


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
    from .exactla import SparseIntegerMatrix, rank_over_rationals

    rows = []
    for pt in labels.SINGULAR_POINTS:
        row = {}
        for j, mono in enumerate(basis):
            v = _fiber_generator_image(labels.DIVISORS[mono[0]], pt, labels.FIBER_P1)
            if v:
                row[j] = v
        rows.append(row)
    fmat = SparseIntegerMatrix.from_dicts(len(basis), rows)
    r = rank_over_rationals(fmat)
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
