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

Every degree is built by the same function, _degree: it enumerates the
degree's admissible monomials, and all of its relation rows (degree 0 has
none) go through exactla.peel, which absorbs the rows of at most two unit
entries into a signed union-find over the columns and puts the rest into
one integer echelon form with rightmost pivots (so the lexicographically
smallest monomials survive as the basis).  Together they give the rank,
the torsion certificate of the whole relation lattice and the pivot rows;
on the all-line-fiber config the union-find gives 6,557 of the 6,784
pivots of degree 4 and 927 of the 2,449 of degree 3.  The build reads
nothing more: the reduced rows for normal forms (DegreeData.rref) are made
from the pivot rows on first use.

One function, build_degrees, builds the tables of the six-lines space
(build_quotient) and Keel's rings of M-bar_{0,n} (m0nring), so Keel's known
answers test it.  Degrees above 1 multiply only the linear relations that
open a pivot when one echelon takes them in order, which every build
certifies against degree 1 in the calling process; those degrees then
depend on nothing else and run side by side in worker processes.
Torsion-freeness is certified in every degree by the invariant factors of
exactla.smith_from_echelon.  For the six-lines tables the rank profile
(1, 51, 127+|S2|, 51, 1) is a theorem; a computed mismatch raises
VerificationError rather than a report with different numbers.

RingElement is the free polynomial ring and knows no config.  product
and integrate_product evaluate products in the quotient instead: a
product monomial that is not admissible is zero by the monomial
relations, and since every factor of an admissible monomial is admissible
the result is exactly the free product with its inadmissible monomials
removed.  Normal forms, integrals and restrictions to exceptional fibers
read only admissible monomials, so they take the same values on either
product; the quotient product never expands the free ring.  Both refuse a
product past degree 4 exactly where the free ring does
(_check_degree_cap).

Quotient products run by column.  Each degree k >= 1 keeps a product
table: for every admissible monomial of degree k-1 and every divisor, the
column of their product in degree k, or a mark that it is not admissible.
The same table feeds the relation-row stream of the degree's elimination
and _chain, the one column kernel, which takes a whole chain of factors:
the running product starts at one, every factor multiplies it by _times,
and it stays integer numerators by (degree, column) across all of them; a
zero product is one without columns.  A factor's divisors reach it
through per-column divisor masks (DegreeData.masks), so only admissible
products are visited: in the 126 psi quartics of the benchmark's seed-1
query round, a mean 21%, 14% and 11% of the (running column, divisor)
pairs of the second, third and fourth factor are admissible.
normal_form reads its element through the same kernel, as a product of
one factor.  product forms monomial keys and Fractions once, for the
result.  integrate never forms them: each hit of the last factor in the
top degree adds its value times the integration functional at its column
to one int, so no degree-4 element is built.
On the all-line-fiber table (2 shared cores, CPython 3.11.7; the range of
the medians of six sittings, whose load varied, each timing this path
and, alternately, one that built the degree-4 product and then
integrated it) `integrate "(K+B)^4"` takes
0.009-0.015 s through the CLI, against 0.020-0.036 s; the 140 small
queries of the benchmark's seed-1 query round, run through cli.main in one
process, take 0.031-0.056 s against 0.041-0.086 s.

Sums of elements add term by term (RingElement._plus), and _collect sums
the (monomial, coefficient) terms of free products and relabelings; both
drop zeros.  The column kernel sums by column.  Normal forms reduce by the
degree's rref with exactla.reduce_row, the same back-substitution that
makes it.

Integrals read the top degree's functional, its values by column, which
is certified to be 1 on every point (DegreeData.functional), so the
published psi[5,6]^2 psi[6,5]^2 = 1 is a consequence that m36 verify
checks.  An integral of a product is one integrate_product, or one
integrate of its last factor times the others; integrate(e, t) alone is
the one-factor case.  The queries read only a table's degrees, so Keel's
rings (m0nring.M0nRing) take them too.

The fifteen line forms (line_forms), the degree of each divisor on each
exceptional line, are certified to vanish on the linear relations: fiber
restriction, the descent test and the K+B check in classes read them.

Inside the engine every coefficient is an integer: the rref rows are integer
numerators over one row denominator.  Fraction appears only at the API
boundary, where _chain clears the denominators of the inputs of
normal_form, product and integrate and they divide them back out of each
result, where sums add Fraction terms, and where the integration
functional reads its values.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from types import MappingProxyType

from . import labels
from .boundarycomplex import build_complex
from .exactla import (
    IntEchelon,
    peel,
    reduce_row,
    rref_from_pivots,
    smith_from_echelon,
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


def _check_degree_cap(factors, top=MAX_DEGREE):
    """Refuse the product of the {monomial: coeff} factors, taken left to
    right, once the lengths of their longest monomials, admissible or not,
    pass top in sum before a zero factor ends the product.  The left fold of
    free products from one raises at the same factor: the free ring has no
    zero divisors, so a product of nonzero elements is nonzero and its
    degree is the sum of theirs."""
    total = 0
    for f in factors:
        if not f:
            return
        total += max(map(len, f))
        if total > top:
            raise ValueError("product exceeds degree %d" % top)


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

    def _plus(self, other, sign):
        """self + sign * other.  A term of one side that the other lacks
        keeps its value, two int terms add as ints, and any other pair of
        terms adds once per distinct pair of coefficient objects: elements
        built from the same atoms share them, so the 65 terms of K+B take
        three Fraction additions.  K+B takes a median 33-57 us, against
        46-78 us when both sides were cleared to integers over one
        denominator with one Fraction made per distinct value; a 65-term
        Fraction element plus an int element on half of its terms takes
        61-98 us against 82-160 us, and two 65-term int elements 10-19 us
        against 16-31 us (six sittings, alternating, 2 shared cores,
        CPython 3.11.7)."""
        out = dict(self.coeffs)
        get, sums = out.get, {}
        for m, c in other.coeffs.items():
            a = get(m)
            if a is None:
                out[m] = c if sign > 0 else -c
                continue
            if type(a) is int is type(c):
                v = a + sign * c
            else:
                # both objects live in the operands, so their ids are unique
                key = id(a), id(c)
                v = sums.get(key)
                if v is None:
                    v = sums[key] = a + sign * c
            if v:
                out[m] = v
            else:
                del out[m]
        return RingElement._raw(out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return RingElement._raw({m: -c for m, c in self.coeffs.items()})

    def scale(self, s):
        if not s:
            return RingElement.zero()
        return RingElement._raw({m: c * s for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            _check_degree_cap((self.coeffs, other.coeffs))
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


@functools.cache
def linear_relations():
    """The sixty degree-1 relation generators, as a tuple built once per
    process: for each restriction line i, spectator mark j, and alternate
    pairing of the remaining four marks, the difference of pulled-back
    four-point boundary sums.  Config-independent.
    """
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
    return tuple(gens)


def _linear_relation_vectors():
    """The generators as {divisor index: coefficient} dicts."""
    return [{mono[0]: c for mono, c in g.coeffs.items()} for g in linear_relations()]


# --------------------------------------------------------------------------
# admissible monomials


def admissible_monomials(complex_, k):
    """Degree-k monomials whose support is a face of the complex, in
    lexicographic order of the sorted index tuples: for each face of at most
    k vertices, the size-k multisets on it that use every vertex."""
    if k == 0:
        return [()]
    out = [
        mono
        for faces in complex_.faces[:k]
        for face in faces
        for mono in combinations_with_replacement(face, k)
        if len(set(mono)) == len(face)
    ]
    out.sort()
    return out


# Entry _WIDTH * i + d of a degree's product table is the column of the
# degree-(k-1) monomial i times the divisor d, or _NO_COLUMN where that
# product is not admissible.  A column fits in 16 bits: the largest degree,
# degree 4 of the all-plane-fiber config, has 6,935.  M(0,n) for n <= 7 has at
# most 56 boundary divisors, so its tables share the width.
_WIDTH = len(labels.DIVISORS)
_NO_COLUMN = 0xFFFF


def _product_table(lower, monomials):
    """The product table of the degree whose columns are monomials, over the
    multiplier monomials lower of one degree less, as a flat array("H").
    Every factor of an admissible monomial is admissible, so each monomial
    less one copy of each distinct divisor in it gives one entry, and every
    admissible product is found."""
    lower_index = {m: i for i, m in enumerate(lower)}
    out = array("H", [_NO_COLUMN]) * (_WIDTH * len(lower))
    for col, mono in enumerate(monomials):
        prev = None
        for pos, d in enumerate(mono):
            if d != prev:
                out[_WIDTH * lower_index[mono[:pos] + mono[pos + 1 :]] + d] = col
                prev = d
    return out


# --------------------------------------------------------------------------
# per-degree elimination


def _row_stream(generators, monomials_lower, products):
    """Deterministic relation-row stream for one degree: multiplier monomials
    in reverse lexicographic order, generators in order; rows are
    {col: coeff} with their keys ascending.

    Each multiplier's columns are one slice of the degree's product table.
    Its admissible divisors are walked in ascending order, and each adds its
    coefficient to the row of every generator that holds it; products that
    are not admissible have no column and drop out.  Multiplying a monomial
    by a larger divisor gives a lexicographically larger product, so each
    row's keys come out ascending.  On the all-line-fiber config the
    degree-4 stream of the 14 relations that build_quotient multiplies
    (26,082 rows of mean length 2.75) takes a median 0.015-0.016 s,
    against 0.040-0.041 s when each generator's row was read off the slice
    entry by entry; degree 3 (6,580 rows) takes 0.004 s against 0.010 s.
    Seven alternating runs each in one process, two sittings, 2 shared
    cores, CPython 3.11.7."""
    incidence = [[] for _ in range(_WIDTH)]
    for j, g in enumerate(generators):
        for d, c in g.items():
            incidence[d].append((j, c))
    for i in reversed(range(len(monomials_lower))):
        rows = [{} for _ in generators]
        for d, col in enumerate(products[_WIDTH * i : _WIDTH * (i + 1)]):
            if col != _NO_COLUMN:
                for j, c in incidence[d]:
                    rows[j][col] = c
        for row in rows:
            if row:
                yield row


@dataclass
class DegreeData:
    """One degree of a quotient as _degree builds it (in a pool worker for
    degrees 2-4): its admissible monomials, rank, invariant factors, the
    pivot rows of exactla.peel, basis columns and the product table from
    the degree below.  Only index, rref, masks and functional are added
    later, each read off these fields on first use."""

    monomials: tuple
    rank: int
    torsion: tuple
    # {lead: row}, one echelon row per pivot from exactla.peel, None once
    # rref is made from them
    pivots: dict
    basis_cols: tuple
    products: array  # the degree's _product_table
    # the degree's own elimination, timed in the process that ran it (a pool
    # worker for degrees 2-4, whose times overlap), without the enumeration
    # of its monomials or the rref
    runtime_ms: int = 0

    @functools.cached_property
    def index(self):
        """{monomial: column}, made in the process that reads it, so no pool
        worker sends it back."""
        return {m: i for i, m in enumerate(self.monomials)}

    @functools.cached_property
    def rref(self):
        """{lead: (num, den)}, the rational row e_lead + num/den: the pivot
        rows fully reduced, in the process that takes the first normal form
        or integral in this degree, which then drops the pivot rows.  The
        build reads the echelon alone, so neither it nor its pool workers
        pay for the rref."""
        pivots, self.pivots = self.pivots, None
        return rref_from_pivots(pivots)

    @functools.cached_property
    def masks(self):
        """For each admissible monomial of one degree less, by column, the
        divisors whose product with it is admissible, as the set bits of an
        int: products read by row on first use, in the process that
        multiplies, so neither the build nor its pool workers pay for it."""
        products, none = self.products, _NO_COLUMN
        return [
            sum(1 << d for d, p in enumerate(products[i : i + _WIDTH]) if p != none)
            for i in range(0, len(products), _WIDTH)
        ]

    @functools.cached_property
    def functional(self):
        """The integration functional of a top degree, its int values by
        column, 1 on its first point: a squarefree monomial, where as many
        boundary divisors meet transversally.  Every point must integrate
        to 1, or VerificationError; the all-line-fiber table has 1,020 of
        them."""
        points = [c for c, m in enumerate(self.monomials) if len(set(m)) == len(m)]
        func = top_functional(self, {points[0]: 1})
        off = [c for c in points if func[c] != 1]
        if off:
            raise VerificationError(
                "%d of the %d points of the top degree do not integrate to 1, "
                "first %r" % (len(off), len(points), self.monomials[off[0]])
            )
        return func


# --------------------------------------------------------------------------
# the table


class GradedQuotientTable:
    """Per-degree quotient data for one resolution config, not changed after
    the build except that each degree's masks are read on the first product,
    its rref, which replaces its pivot rows, on the first normal form or
    integral there, and degree 4's functional on the first integral: the
    product tables that product reads come back from the build with their
    degrees.  On the all-line-fiber config the tables take 411,580 bytes
    together, 325,000 of them in degree 4, and the masks at most 131,316
    bytes, counting each int as its own object; they are read off the
    tables in 11-17 ms.  runtime_ms is the wall time of the whole build,
    degrees run side by side included, and no rref."""

    def __init__(self, config, degrees, runtime_ms):
        self.config = config
        self.degrees = degrees
        self.runtime_ms = runtime_ms

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
        """Every degree carries exact invariant factors."""
        return tuple(range(len(self.degrees)))

    @property
    def torsion_free(self):
        """True when every degree has all invariant factors 1."""
        return all(d == 1 for dd in self.degrees for d in dd.torsion)

    def relation_row_stream(self, k):
        """All degree-k relation rows from the sixty linear generators, as
        {col: coeff} dicts."""
        return _row_stream(
            _linear_relation_vectors(),
            self.degrees[k - 1].monomials,
            self.degrees[k].products,
        )


def _expected_profile(cfg):
    return (1, 51, 127 + len(cfg.s2), 51, 1)


def _degree(generators, complex_, k):
    """The DegreeData of degree k.  The admissible monomials of degrees k
    and k-1 are enumerated here; the relation rows, _row_stream of the
    generators times those of degree k-1, go through exactla.peel, and
    smith_from_echelon runs once on the IntEchelon of the rows that the
    peel keeps.  runtime_ms times all but the enumeration.  Degree 0 has no
    relation rows."""
    monomials = tuple(admissible_monomials(complex_, k))
    lower = admissible_monomials(complex_, k - 1) if k else ()
    t0 = time.monotonic()
    ncols = len(monomials)
    products = _product_table(lower, monomials)
    pivots, ech = peel(_row_stream(generators, lower, products), ncols)
    return DegreeData(
        monomials=monomials,
        rank=ncols - len(pivots),
        torsion=(1,) * (len(pivots) - ech.rank) + smith_from_echelon(ech),
        pivots=pivots,
        basis_cols=tuple(c for c in range(ncols) if c not in pivots),
        products=products,
        runtime_ms=int((time.monotonic() - t0) * 1000),
    )


def _opening_relations(relations):
    """The {vertex: coeff} relations that open a pivot when one IntEchelon
    takes them in order."""
    probe = IntEchelon()
    return [r for r in relations if probe.insert(r) is not None]


def _leads(pivots):
    return {c: row[c] for c, row in pivots.items()}


def _pool_workers(jobs):
    """How many worker processes run `jobs` degrees side by side: one per
    usable CPU, at most jobs, or 0 where the degrees run one after another
    in this process instead.  They run here with one usable CPU, where the
    fork start method does not exist (Windows), and in a daemonic process,
    which may have no children.  The pool always forks: a forked worker
    re-runs nothing of the calling script, so a caller needs no
    `if __name__ == "__main__"` guard under any default start method (spawn
    on macOS and Windows, forkserver on Linux from Python 3.14)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows
        cpus = os.cpu_count() or 1
    if min(jobs, cpus) < 2:
        return 0
    # imported here, like concurrent.futures in build_quotient: a process
    # that builds no table should not pay for importing multiprocessing
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 0
    if multiprocessing.current_process().daemon:
        return 0
    return min(jobs, cpus)


def build_degrees(complex_, relations, top, name):
    """The DegreeData of degrees 0 through top of the quotient of the
    polynomial ring on the vertices of complex_, whose non-faces are zero, by
    the {vertex: coeff} linear relations, with rank and torsion certified
    exactly over Z in every degree, or VerificationError naming the space.

    Every degree is built by _degree.  The rows of degree 1 are the linear
    relations themselves.  Every higher degree multiplies only the opening
    relations (_opening_relations): for the six-lines space 14 of the sixty,
    rows of 20 entries, where the degree-1 pivot rows hold 404 entries
    after their reduction at store time.  Every degree-k relation lattice
    is the degree-1 lattice times the monomials of degree k-1, so any
    Z-basis of it gives the same degrees.  Every build certifies that the
    opening relations are one: their own echelon must have the leads of
    every degree-1 pivot, the ones that the peel absorbs included (nested
    lattices with the same pivot columns and lead products are equal), or
    VerificationError.  The degree-1 columns are the vertices, so the leads
    compare as they are.  Degrees 0 and 1 are built in this process and
    the certificate is checked before any worker starts; degrees top down
    to 2 then run side by side in a pool of min(top - 1, usable CPUs)
    forked worker processes, or one after another here where _pool_workers
    finds no pool possible.  A job is (the opening relations, complex_, k),
    so the workers get every input as an argument, and each sends back its
    degree's DegreeData; the pool is joined before build_degrees returns or
    raises.  Row order changes the cost, not the result: on the six-lines
    space reverse multiplier order gives smaller pivot entries than forward
    order (5, 4 and 2 bits in degrees 2-4 against 6, 5 and 3), and peeling
    degrees 2-4 takes 0.29-0.37 s of CPU time against 0.48-0.55 s (three
    runs each)."""
    degrees = [_degree(relations, complex_, k) for k in (0, 1)]
    generators = _opening_relations(relations)
    check = IntEchelon()
    for g in generators:
        check.insert(g)
    if _leads(check.pivots) != _leads(degrees[1].pivots):
        raise VerificationError(
            "the %d relations that open degree-1 pivots do not generate the "
            "degree-1 relation lattice of %s" % (len(generators), name)
        )
    ks = range(top, 1, -1)
    jobs = ([generators] * len(ks), [complex_] * len(ks), ks)
    workers = _pool_workers(len(ks))
    if workers:
        # imported here: concurrent.futures.process takes tens of ms to
        # import, which a process that builds no quotient should not pay
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            higher = list(pool.map(_degree, *jobs))
    else:
        higher = list(map(_degree, *jobs))
    degrees += reversed(higher)
    torsion = [k for k, dd in enumerate(degrees) if any(d != 1 for d in dd.torsion)]
    if torsion:
        raise VerificationError(
            "torsion appeared in degrees %r for %s" % (torsion, name)
        )
    return degrees


def build_quotient(cfg, mode="two-prime"):
    """The graded quotient table of a resolution config, by build_degrees,
    with the rank profile of the theorem or VerificationError.

    On the all-line-fiber config (two sittings of 10 builds each in fresh
    processes, alternating with builds in one process; 2 shared cores whose
    load varied, CPython 3.11.7) the build takes a median 0.38 and 0.50 s
    of wall time against 0.45 and 0.42 s in one process, and 0.56 and
    0.49 s of CPU time in this process and its workers together against
    0.45 and 0.42 s: the workers save wall time only when the second core
    is free.  In one process degrees 2, 3 and 4 take a median 87-103,
    195-227 and 67-78 ms (DegreeData.runtime_ms); their rrefs are not made
    here (DegreeData.rref).  With two usable CPUs degree 2 starts when the
    first worker is done, which is degree 4's.  Memory grows with the
    workers: the process and its workers together peak at a median 37 MB
    of proportional set size, against 21 MB in one process (6 builds each,
    polled every 5 ms from a thread of the building process).

    mode, "exact" or "two-prime", selects no computation: both run the same
    exact path.  It is validated and otherwise ignored; the label lives in
    the CLI's reports."""
    if mode not in ("exact", "two-prime"):
        raise ValueError("mode must be 'exact' or 'two-prime'")
    t0 = time.monotonic()
    degrees = build_degrees(
        build_complex(cfg), _linear_relation_vectors(), MAX_DEGREE, cfg.name()
    )
    table = GradedQuotientTable(
        config=cfg,
        degrees=degrees,
        runtime_ms=int((time.monotonic() - t0) * 1000),
    )
    got, expected = table.ranks, _expected_profile(cfg)
    if got != expected:
        raise VerificationError(
            "rank profile %r does not match the theorem %r for %s"
            % (got, expected, cfg.name())
        )
    return table


@functools.cache
def table(cfg):
    """The table of cfg, built on first use and kept for the process.  The
    CLI, the acceptance criteria and the test fixtures all read this cache;
    build_quotient itself never caches."""
    return build_quotient(cfg)


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


def clear_denominators(coeffs):
    """(L, coeffs times L as ints) for the lcm L of the denominators of the
    int and Fraction values of coeffs; coeffs itself when they are all
    ints."""
    if all(type(c) is int for c in coeffs.values()):
        return 1, coeffs
    scale = lcm(*(c.denominator for c in coeffs.values()))
    return scale, {
        k: c.numerator * (scale // c.denominator) for k, c in coeffs.items()
    }


def _check_vertices(mono, degrees):
    """ValueError when the sorted, inadmissible mono names no vertex: the
    vertices are the divisors 0 to len(degrees[1].index) - 1."""
    if mono[-1] >= len(degrees[1].index):
        raise ValueError("unknown generator index in %r" % (mono,))


def normal_form(e, t):
    """Canonical representative of e on the chosen basis monomials.  e is
    read into columns by _chain, as a product of one factor: its admissible
    terms become one row of integer numerators per degree over the lcm L of
    their denominators, an inadmissible monomial is zero and drops out
    unless it names no generator of t, and a degree past the top is
    refused.  The integer reduction (num, den) of each row gives the
    coefficients num / (L * den)."""
    running, scale, _total = _chain([e.coeffs], t.degrees)
    out = {}
    for dd, row in zip(t.degrees, running):
        if not row:
            continue
        num, den = reduce_row(row, dd.rref)
        den *= scale
        for col, v in num.items():
            out[dd.monomials[col]] = v if den == 1 else Fraction(v, den)
    return RingElement(out)


def _times(running, live, factor, degrees, weights=None):
    """The running product, numerators by degree as {column: int}, times
    one factor of int coefficients, by column: (sums, total), sums the new
    running product.  Its admissible terms act on the live degrees of the
    running product by degree: its constant scales them; its divisors, by
    the bits of the factor's divisor mask that each running column's entry
    in DegreeData.masks shares, so only admissible products are visited;
    each longer monomial steps them through the product tables one divisor
    at a time, and a product that is not admissible drops out at the first
    step that leaves the admissible monomials, since every factor of an
    admissible monomial is admissible.  With weights, the top degree's
    functional, every hit in the top degree adds its value times the weight
    of its column to the int total instead of entering sums."""
    top = len(degrees) - 1
    unit, mask, linear, longer = 0, 0, [0] * _WIDTH, []
    for mono, c in factor.items():
        if mono not in degrees[len(mono)].index:
            _check_vertices(mono, degrees)
            continue
        if not mono:
            unit = c
        elif len(mono) == 1:
            mask |= 1 << mono[0]
            linear[mono[0]] = c
        else:
            longer.append((mono, c))
    sums = [{} for _ in degrees]
    total = 0
    for k in live:
        terms = running[k]
        if unit:
            w, acc = weights if k == top else None, sums[k]
            for col, v in terms.items():
                if w is None:
                    acc[col] = acc.get(col, 0) + v * unit
                else:
                    total += v * unit * w[col]
        if mask:
            dd, acc = degrees[k + 1], sums[k + 1]
            w = weights if k + 1 == top else None
            products, masks = dd.products, dd.masks
            for col, v in terms.items():
                hits = masks[col] & mask
                base = _WIDTH * col
                while hits:
                    bit = hits & -hits
                    d = bit.bit_length() - 1
                    p = products[base + d]
                    if w is None:
                        acc[p] = acc.get(p, 0) + v * linear[d]
                    else:
                        total += v * linear[d] * w[p]
                    hits ^= bit
        for mono, c in longer:
            *steps, last = mono
            j, cols = k, terms.items()
            for d in steps:
                j += 1
                products = degrees[j].products
                cols = [
                    (p, v)
                    for col, v in cols
                    if (p := products[_WIDTH * col + d]) != _NO_COLUMN
                ]
            products, acc = degrees[j + 1].products, sums[j + 1]
            w = weights if j + 1 == top else None
            for col, v in cols:
                p = products[_WIDTH * col + last]
                if p == _NO_COLUMN:
                    continue
                if w is None:
                    acc[p] = acc.get(p, 0) + v * c
                else:
                    total += v * c * w[p]
    return sums, total


def _chain(factors, degrees, weights=None):
    """The column kernel, the one reader of elements into the quotient's
    columns, for normal_form, product and integrate_product: the product
    of the {monomial: coeff} factors, left to right, as (running, scale,
    total).  Products beyond the top degree are refused by
    _check_degree_cap before any term is formed.  running holds integer
    numerators by degree as {column: int} over one denominator, scale, the
    product of the factors' denominators: it starts at one, and every
    factor multiplies it by _times.  Once a factor or the running product
    is zero, the product is zero: no column, scale 1 and total 0.  With
    weights, the top degree's functional, the top degree of the product is
    never stored: the last factor's top-degree hits are summed against
    weights into the int total."""
    _check_degree_cap(factors, len(degrees) - 1)
    running = [{} for _ in degrees]
    running[0][0] = 1
    scale, total = 1, 0
    for i, factor in enumerate(factors, 1):
        # zeros left by cancellation stay until the result; they add nothing
        live = [k for k, terms in enumerate(running) if any(terms.values())]
        if not live or not factor:
            return [{} for _ in degrees], 1, 0
        factor_scale, factor = clear_denominators(factor)
        scale *= factor_scale
        last = weights if i == len(factors) else None
        running, total = _times(running, live, factor, degrees, last)
    return running, scale, total


def product(factors, t):
    """The product of the RingElements factors, taken left to right in the
    ring of t: the free product without its inadmissible monomials, one when
    there are no factors.  Products beyond the top degree are refused before
    any term is formed.  The product is taken by column, as one chain
    (_chain), and monomial keys and Fractions are formed once, for the
    result.  Four factors K+B are one such chain; on the all-line-fiber
    table it takes a median 0.016-0.028 s (six sittings, 2 shared cores,
    CPython 3.11.7)."""
    degrees = t.degrees
    running, scale, _total = _chain([f.coeffs for f in factors], degrees)
    return RingElement._raw({
        degrees[k].monomials[col]: v if scale == 1 else Fraction(v, scale)
        for k, terms in enumerate(running)
        for col, v in terms.items()
        if v
    })


def is_zero_in(e, t):
    return normal_form(e, t).is_zero()


def top_functional(dd, normalizer):
    """The integer functional on the columns of a corank-1 degree dd that
    annihilates its relation span and takes the value 1 on the normalizing
    class, given as {col: coeff}, such as a point: a tuple of its values by
    column.  It is read off the rref at the one basis column and must come
    out integral, which is to say the primitive functional gives +-1 on the
    normalizing class; otherwise, or when dd does not have corank 1,
    VerificationError."""
    if len(dd.basis_cols) != 1:
        raise VerificationError("the top degree does not have corank 1")
    (j0,) = dd.basis_cols
    func = [Fraction(0)] * len(dd.monomials)
    func[j0] = Fraction(1)
    for lead, (num, den) in dd.rref.items():
        func[lead] = -Fraction(num.get(j0, 0), den)
    total = sum(c * func[col] for col, c in normalizer.items())
    if not total or any((v / total).denominator != 1 for v in func):
        raise VerificationError(
            "no integral functional is 1 on the normalizing class "
            "(the unscaled one gives %r there)" % (total,)
        )
    return tuple(int(v / total) for v in func)


def integrate(e, t, *, times=()):
    """The integral over the ring of t of the product of the RingElements
    times and e, taken left to right by column as in product, as an exact
    rational; the product must be zero or homogeneous of the top degree of
    t, or ValueError.  e is the last factor: it is summed against the top
    degree's functional as it multiplies (_chain), so no term of the
    product's top degree is stored, and no monomial key or Fraction is
    formed: the 126 psi quartics of the benchmark's seed-1 query round take
    a median 150-230 us each, against 171-347 us for integrating the built
    product (six sittings, alternating, 2 shared cores, CPython 3.11.7).
    times is keyword-only, and the benchmark's tracer reads the call as
    integrate(e, t)."""
    degrees = t.degrees
    top = len(degrees) - 1
    factors = [f.coeffs for f in times]
    factors.append(e.coeffs)
    running, scale, total = _chain(factors, degrees, degrees[top].functional)
    if any(any(terms.values()) for terms in running[:top]):
        raise ValueError("integrand must be homogeneous of degree %d" % top)
    return Fraction(total, scale)


def integrate_product(factors, t):
    """The integral of the product of the RingElements factors, taken left
    to right, over the ring of t: integrate of the last factor times the
    others, or of one when there are none."""
    *times, e = factors or (RingElement.one(),)
    return integrate(e, t, times=times)


# --------------------------------------------------------------------------
# exceptional fibers


@dataclass(frozen=True)
class FiberValue:
    """Element of the Chow ring of an exceptional fiber: coefficients of
    (1, p) on a line, (1, h, h^2) on a plane."""

    point: labels.SingularPointId
    kind: str
    coeffs: tuple

    def _match(self, other):
        if self.point != other.point or self.kind != other.kind:
            raise ValueError("fiber values live on different fibers")

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


@functools.cache
def line_forms():
    """{p: l_p} in SINGULAR_POINTS order, read-only: l_p(D) is the degree of
    a divisor D on the exceptional line over p, as a tuple by divisor index,
    -1 on p's three Pair divisors and 1 on its two cyclic triples.  Each l_p
    is certified to vanish on the sixty linear relations (VerificationError),
    so a degree-1 class descends when every l_p is 0 on it."""
    forms = {}
    for pt in labels.SINGULAR_POINTS:
        form = [0] * len(labels.DIVISORS)
        for d in labels.pair_divisors_of_point(pt):
            form[labels.divisor_index(d)] = -1
        for d in labels.cyclic_divisors_of_point(pt):
            form[labels.divisor_index(d)] = 1
        forms[pt] = tuple(form)
    for rel in _linear_relation_vectors():
        for pt, form in forms.items():
            if sum(c * form[i] for i, c in rel.items()):
                raise VerificationError(
                    "the line form of %s is not zero on the linear relation %r"
                    % (pt.name(), rel)
                )
    return MappingProxyType(forms)


def line_degrees(e):
    """{p: l_p of the degree-1 terms of e} over the fifteen singular points,
    in SINGULAR_POINTS order."""
    linear = [(mono[0], c) for mono, c in e.coeffs.items() if len(mono) == 1]
    return {
        pt: sum(c * form[i] for i, c in linear) for pt, form in line_forms().items()
    }


def restrict_to_fiber(e, pt, cfg):
    """Restriction of a class to the exceptional fiber over one singular
    point, using the fiber kind that the config cfg assigns.  A divisor D
    restricts to l_p(D) times the hyperplane class of a line and to -l_p(D)
    times that of a plane (line_forms).  It reads no quotient table, so
    none is built for it."""
    form = line_forms().get(pt)
    if form is None:
        raise ValueError("unknown singular point %r" % (pt,))
    kind = cfg.fiber(pt)
    cap = 2 if kind == labels.FIBER_P1 else 3
    coeffs = [0] * cap
    for mono, c in e.coeffs.items():
        k = len(mono)
        if k >= cap:
            continue
        scalar = 1
        for i in mono:
            scalar *= form[i]
            if not scalar:
                break
        if scalar:
            coeffs[k] += c * scalar
    if kind == labels.FIBER_P2:
        coeffs[1] = -coeffs[1]
    return FiberValue(point=pt, kind=kind, coeffs=tuple(coeffs))


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
