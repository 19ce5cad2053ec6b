"""Independent oracles that only the tests use.

Each one recomputes something the program derives another way: kernels over
Q from the integer echelon, the admissible-monomial counts from the face
numbers alone, and the monomial relations straight from divisor
intersections.  The sympy-backed tests check the kernels; the counts and
relations are checked against the program.
"""

from fractions import Fraction
from math import comb

from m36 import labels
from m36.chowring import MAX_DEGREE
from m36.exactla import IntEchelon


def nullspace_basis(rows, ncols):
    """Basis of the right kernel over Q of {col: coeff} integer rows, read
    off the rref of their IntEchelon: one dense Fraction list per non-pivot
    column, with 1 at that column."""
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
        for lead, row in rref.items():
            if j in row:
                vec[lead] = -Fraction(row[j])
        out.append(vec)
    return out


def admissible_count_formula(f_vector, k):
    """Count of the degree-k admissible monomials from the face numbers
    alone: each d-face supports C(k-1, d) multisets of size k."""
    if k == 0:
        return 1
    return sum(f_vector[d] * comb(k - 1, d) for d in range(MAX_DEGREE + 1))


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
