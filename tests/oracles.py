"""Independent oracles that only the tests use.

Each one recomputes something the program derives another way: kernels over
Q from the integer echelon, the admissible monomials by filtering the
multisets on each face, their counts from the face numbers alone, and the
monomial relations straight from divisor intersections on a resolution
(which divisors meet there, and which pair triples vanish at plane fibers),
where the program instead removes faces from the unresolved complex.  The
sympy-backed tests check the kernels; the counts and relations are checked
against the program.  The Keel-ring reference builds A*(M-bar_{0,n}) without
chowring.build_degrees, and the free-ring evaluation gives what the CLI's
integrate and restrict must print without the quotient evaluation that the
CLI takes when it can.  The integration functional normalized on psi[5,6]^2
psi[6,5]^2, the rule before the point normalization, is the reference that
rule must agree with, and a top degree with one point moved off 1 is what
the point certificate must refuse.  Normal forms taken term by term, each
degree's denominators cleared on their own, are the reference for
normal_form, which reads its element through the product kernel.  The
lex-smallest member of a psi orbit, by a min over all 720 relabelings, is
the reference for the program's orbit map.
"""

import dataclasses
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from m36 import chowring, classes, cli, labels
from m36.boundarycomplex import flag_complex
from m36.chowring import MAX_DEGREE
from m36.exactla import IntEchelon, reduce_row
from m36.m0nring import _keel_generators, m0n_compatible


def nullspace_basis(rows, ncols):
    """Basis of the right kernel over Q of {col: coeff} integer rows, read
    off the rref of their IntEchelon, whose rows are (num, den) pairs: one
    dense Fraction list per non-pivot column, with 1 at that column."""
    ech = IntEchelon()
    for row in rows:
        ech.insert(dict(row))
    rref = ech.rref()
    out = []
    for j in range(ncols):
        if j in rref:
            continue
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for lead, (num, den) in rref.items():
            if j in num:
                vec[lead] = -Fraction(num[j], den)
        out.append(vec)
    return out


def reference_admissible_monomials(complex_, k):
    """The degree-k admissible monomials by filtering: every size-k multiset
    on each face of at most k vertices, kept when it uses every vertex of
    the face, sorted."""
    if k == 0:
        return [()]
    return sorted(
        mono
        for faces in complex_.faces[:k]
        for face in faces
        for mono in combinations_with_replacement(face, k)
        if len(set(mono)) == len(face)
    )


def admissible_count_formula(f_vector, k):
    """Count of the degree-k admissible monomials from the face numbers
    alone: each d-face supports C(k-1, d) multisets of size k."""
    if k == 0:
        return 1
    return sum(f_vector[d] * comb(k - 1, d) for d in range(MAX_DEGREE + 1))


def intersects(a, b, cfg=None):
    """Whether two distinct boundary divisors meet.  cfg=None asks about the
    unresolved space (labels.intersects); on the resolution of cfg, partner
    cyclic triples meet only when their point has a plane fiber."""
    meet = labels.intersects(a, b)
    if meet and cfg is not None and a.kind == b.kind == labels.CYCLIC:
        return cfg.fiber(labels.singular_point(a.data)) == labels.FIBER_P2
    return meet


def fiber_generator_image(d, pt, kind):
    """Image of one boundary divisor in the ring of the fiber over pt, as
    the coefficient of its hyperplane class, decided from d alone: a Pair
    divisor through pt gives -1 on a line and 1 on a plane, a cyclic triple
    whose matching is pt the opposite sign, anything else 0."""
    if d.kind == labels.TRIPLE:
        return 0
    if d.kind == labels.PAIR:
        if d.data not in pt.matching:
            return 0
        return -1 if kind == labels.FIBER_P1 else 1
    if labels.singular_point(d.data) != pt:
        return 0
    return 1 if kind == labels.FIBER_P1 else -1


def orbit_min(key):
    """The lex-smallest member of the relabeling orbit of a multiset of psi
    pairs, each image sorted: a min over all 720 relabelings, where the
    program reads a map built in one walk of the multisets."""
    return min(
        tuple(sorted((sigma[i - 1], sigma[j - 1]) for i, j in key))
        for sigma in labels.all_permutations()
    )


def s2_triple_relations(cfg):
    """For each plane-fiber point, the triple of Pair divisors whose product
    vanishes; sorted by matching."""
    return [
        frozenset(labels.pair_divisors_of_point(pt))
        for pt in sorted(cfg.s2, key=lambda p: p.matching)
    ]


def multiplicative_relation_generators(cfg):
    """Square-free monomials that vanish in the ring of cfg: quadratic ones
    from disjoint divisor pairs, cubic ones from plane-fiber triples."""
    out = []
    ds = labels.DIVISORS
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            if not intersects(ds[i], ds[j], cfg):
                out.append((i, j))
    for rel in s2_triple_relations(cfg):
        out.append(tuple(sorted(labels.divisor_index(d) for d in rel)))
    return out


def reference_product_table(lower, index, width):
    """The product table entry by entry, as a list: for each monomial m of
    lower and each divisor d < width, the column in index of m*d, formed by
    sorted insertion, or 0xFFFF where m*d is not admissible."""
    out = []
    for m in lower:
        for d in range(width):
            pos = bisect_right(m, d)
            out.append(index.get(m[:pos] + (d,) + m[pos:], 0xFFFF))
    return out


def reference_chain(factors, degrees):
    """The product of {monomial: coeff} factors in the quotient whose
    DegreeData are degrees, as the left fold from one of pairwise free
    products, each restricted to admissible monomials: term pair by term
    pair, every monomial sorted and looked up.  Only for factors whose
    product does not pass the top degree; the degree cap is the free fold's
    (free_fold)."""
    out = {(): 1}
    for factor in factors:
        terms = {}
        for ma, ca in out.items():
            for mb, cb in factor.items():
                mono = tuple(sorted(ma + mb))
                terms[mono] = terms.get(mono, 0) + ca * cb
        out = {m: c for m, c in terms.items() if c and m in degrees[len(m)].index}
    return out


def reference_normal_form(e, t):
    """The normal form of the RingElement e in the ring of t, term by term:
    each monomial looked up in its degree's index, each degree's row
    cleared of its own denominators and reduced by that degree's rref.  A
    monomial past the top degree raises ValueError ("element exceeds
    degree N"), as does an inadmissible one that names no divisor of t."""
    top = len(t.degrees) - 1
    rows = {}
    for m, c in e.coeffs.items():
        if len(m) > top:
            raise ValueError("element exceeds degree %d" % top)
        col = t.degrees[len(m)].index.get(m)
        if col is None:
            chowring._check_vertices(m, t.degrees)
        else:
            rows.setdefault(len(m), {})[col] = c
    out = {}
    for k in sorted(rows):
        dd = t.degrees[k]
        scale, row = chowring.clear_denominators(rows[k])
        num, den = reduce_row(row, dd.rref)
        den *= scale
        for col, v in num.items():
            out[dd.monomials[col]] = v if den == 1 else Fraction(v, den)
    return chowring.RingElement(out)


def free_fold(factors, top):
    """The left fold from one of free products of {monomial: coeff} factors,
    every monomial kept.  Each step refuses, with ValueError, a nonzero
    product so far and a nonzero factor whose longest monomials pass top
    together."""
    out = {(): 1}
    for factor in factors:
        if out and factor and max(map(len, out)) + max(map(len, factor)) > top:
            raise ValueError("product exceeds degree %d" % top)
        terms = {}
        for ma, ca in out.items():
            for mb, cb in factor.items():
                mono = tuple(sorted(ma + mb))
                terms[mono] = terms.get(mono, 0) + ca * cb
        out = {m: c for m, c in terms.items() if c}
    return out


def reference_masks(products, width):
    """For each row of a flat product table, the set of divisors d < width
    whose entry is a column rather than 0xFFFF."""
    return [
        {d for d in range(width) if products[i + d] != 0xFFFF}
        for i in range(0, len(products), width)
    ]


def keel_reference_degrees(ring):
    """The DegreeData of the Keel ring ring, built degree by degree in this
    process with every one of Keel's relations in every degree, one
    chowring._degree call each: no opening relations, no certificate of
    them and no pool."""
    complex_ = flag_complex(ring.gens, m0n_compatible)
    keel = _keel_generators(ring.gens, ring.gens[0].n)
    return [chowring._degree(keel, complex_, k) for k in range(len(ring.degrees))]


def free_ring_outcome(command, text, t, pt):
    """(exit code, stderr, value) that `m36 integrate text`, or `m36 restrict
    text --point pt`, must give on the table t, from the free ring alone:
    the value of cli.parse_expression, for integrate held to the integrand
    rule (zero or homogeneous of degree 4) and integrated, for restrict
    restricted to the fiber over pt.  The value is the integral, or the list
    of fiber coefficients, as strings; None on an error."""
    try:
        e = cli.parse_expression(text)
    except cli.UsageError as err:
        return 2, "error: %s\n" % err, None
    if command == "restrict":
        fv = chowring.restrict_to_fiber(e, pt, t.config)
        return 0, "", [str(c) for c in fv.coeffs]
    if not e.is_zero() and e.degrees() != [4]:
        return 2, "error: integrand must be homogeneous of degree 4\n", None
    return 0, "", str(chowring.integrate(e, t))


def psi_functional(t):
    """The integration functional of the table t normalized on the psi
    monomial psi[5,6]^2 psi[6,5]^2 of the published table."""
    dd = t.degrees[4]
    a, b = classes.psi(5, 6), classes.psi(6, 5)
    psi_monomial = chowring.product((a, a, b, b), t).coeffs
    return chowring.top_functional(
        dd, {dd.index[m]: c for m, c in psi_monomial.items()}
    )


def point_off_one(dd):
    """A copy of the top degree dd whose rref, primed in the copy's cache,
    doubles the value of its last squarefree lead column, a point other
    than the first one, which the functional is normalized on: that point
    integrates to 2."""
    (j0,) = dd.basis_cols
    last = max(
        c for c in dd.rref if len(set(dd.monomials[c])) == len(dd.monomials[c])
    )
    num, den = dd.rref[last]
    copy = dataclasses.replace(dd)
    vars(copy)["rref"] = {**dd.rref, last: ({**num, j0: 2 * num[j0]}, den)}
    return copy
