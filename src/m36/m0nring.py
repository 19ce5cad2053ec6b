"""Keel's presentation of A*(M-bar_{0,n}) for n up to 6.

This module is deliberately self-contained: it carries its own little
fraction-arithmetic elimination instead of reusing the main engine, because
its whole purpose is to be an independent oracle.  The moduli spaces of
stable rational curves have completely understood intersection theory (ranks,
psi-classes, the multinomial formula for top intersections), so running the
same generate-relations-then-quotient recipe here and comparing against the
classical answers validates the recipe itself.

Boundary divisors are indexed by a side of the defining partition of the
marks; the canonical representative is the side not containing n.  Two
divisors multiply to zero unless their partitions are nested or disjoint,
and for every 4-subset of marks the three ways of splitting it two against
two give linearly equivalent divisor sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial


@dataclass(frozen=True, order=True)
class M0nDivisor:
    """Boundary divisor of M-bar_{0,n}, stored by the side without mark n."""

    n: int
    part: tuple


def m0n_divisor(n, marks):
    marks = frozenset(marks)
    if not marks <= set(range(1, n + 1)):
        raise ValueError("marks out of range for n=%d: %r" % (n, marks))
    if n in marks:
        marks = set(range(1, n + 1)) - marks
    if not 2 <= len(marks) <= n - 2:
        raise ValueError("part size must be between 2 and n-2")
    return M0nDivisor(n=n, part=tuple(sorted(marks)))


def m0n_divisors(n):
    out = []
    for k in range(2, n - 1):
        for part in itertools.combinations(range(1, n), k):
            out.append(M0nDivisor(n=n, part=part))
    return sorted(out)


def m0n_compatible(a, b):
    """Whether the product of two boundary divisors can be nonzero: the
    partitions must be nested or disjoint (as sides avoiding n)."""
    sa, sb = set(a.part), set(b.part)
    return sa <= sb or sb <= sa or not (sa & sb)


def _rref_fractions(rows):
    """Tiny dense-free RREF over Q; rows are {col: coeff} dicts.  Returns
    {pivot_col: {col: coeff}} with the implicit pivot entry equal to 1."""
    pivots = {}
    for raw in rows:
        row = {c: Fraction(v) for c, v in raw.items() if v}
        while row:
            lead = max(row)
            b = pivots.get(lead)
            if b is None:
                lv = row.pop(lead)
                pivots[lead] = {c: v / lv for c, v in row.items()}
                break
            coeff = row.pop(lead)
            for c, v in b.items():
                nv = row.get(c, 0) - coeff * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    for lead in sorted(pivots):
        row = pivots[lead]
        for c in [c for c in row if c in pivots]:
            coeff = row.pop(c)
            for col, v in pivots[c].items():
                nv = row.get(col, 0) - coeff * v
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
    return pivots


class M0nRing:
    """Graded quotient data for A*(M-bar_{0,n}), degrees 0 through n-3."""

    def __init__(self, n):
        if not 4 <= n <= 6:
            raise ValueError("n must be between 4 and 6")
        self.n = n
        self.top = n - 3
        self.gens = m0n_divisors(n)
        self.gen_index = {g: i for i, g in enumerate(self.gens)}
        ng = len(self.gens)
        self._compat = [
            [m0n_compatible(self.gens[i], self.gens[j]) for j in range(ng)]
            for i in range(ng)
        ]
        self.monomials = {0: [()]}
        for k in range(1, self.top + 1):
            self.monomials[k] = [
                m
                for m in itertools.combinations_with_replacement(range(ng), k)
                if self._admissible(m)
            ]
        self._linear_gens = self._keel_linear_generators()
        self.rref = {0: {}}
        self.ranks = [1]
        for k in range(1, self.top + 1):
            index = {m: i for i, m in enumerate(self.monomials[k])}
            rows = []
            for lin in self._linear_gens:
                for m in self.monomials[k - 1]:
                    row = {}
                    for g, coeff in lin.items():
                        mono = tuple(sorted(m + (g,)))
                        pos = index.get(mono)
                        if pos is not None:
                            row[pos] = row.get(pos, 0) + coeff
                    if row:
                        rows.append(row)
            self.rref[k] = _rref_fractions(rows)
            self.ranks.append(len(self.monomials[k]) - len(self.rref[k]))
        if self.ranks[self.top] != 1:
            raise AssertionError("top degree of the quotient is not rank 1")
        self._functional = self._normalized_functional()

    def _admissible(self, mono):
        compat = self._compat
        for a, b in itertools.combinations(set(mono), 2):
            if not compat[a][b]:
                return False
        return True

    def _keel_linear_generators(self):
        """For every 4-subset, the three two-against-two splits give equal
        divisor sums; emit the pairwise differences."""
        out = []
        for quad in itertools.combinations(range(1, self.n + 1), 4):
            i, j, k, l = quad
            splits = (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
            vecs = []
            for (a, b), (c, d) in splits:
                vec = {}
                for gi, g in enumerate(self.gens):
                    side = set(g.part)
                    other = set(range(1, self.n + 1)) - side
                    if ({a, b} <= side and {c, d} <= other) or (
                        {a, b} <= other and {c, d} <= side
                    ):
                        vec[gi] = 1
                vecs.append(vec)
            for other in vecs[1:]:
                diff = dict(vecs[0])
                for gi, v in other.items():
                    nv = diff.get(gi, 0) - v
                    if nv:
                        diff[gi] = nv
                    else:
                        diff.pop(gi, None)
                out.append(diff)
        return out

    def _chain_monomial(self):
        """A nested chain of boundary divisors cutting out a point: the marks
        1,2 collide, then 1,2,3, and so on up to degree n-3."""
        chain = []
        for size in range(2, 2 + self.top):
            chain.append(self.gen_index[m0n_divisor(self.n, range(1, size + 1))])
        return tuple(sorted(chain))

    def _normalized_functional(self):
        k = self.top
        rref = self.rref[k]
        free = [i for i in range(len(self.monomials[k])) if i not in rref]
        if len(free) != 1:
            raise AssertionError("expected exactly one free top monomial")
        j0 = free[0]
        func = {j0: Fraction(1)}
        for lead, row in rref.items():
            if j0 in row:
                func[lead] = -row[j0]
        chain = self._chain_monomial()
        pos = {m: i for i, m in enumerate(self.monomials[k])}[chain]
        scale = func.get(pos, Fraction(0))
        if scale == 0:
            raise AssertionError("chain monomial vanishes; cannot normalize")
        return {i: v / scale for i, v in func.items()}

    # -- public queries ----------------------------------------------------

    def degree_ranks(self):
        return tuple(self.ranks)

    def multiply(self, a, b):
        """Product of two {monomial: coeff} elements; monomials carrying an
        incompatible pair are dropped on the spot."""
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                mono = tuple(sorted(ma + mb))
                if len(mono) > self.top:
                    raise ValueError("product exceeds the top degree")
                if not self._admissible(mono):
                    continue
                nv = out.get(mono, 0) + ca * cb
                if nv:
                    out[mono] = nv
                else:
                    del out[mono]
        return out


def build_m0n(n):
    return M0nRing(n)


def m0n_psi(i, ring, refs=None):
    """The psi-class of mark i as a boundary divisor sum: all divisors with i
    on one side and both reference marks on the other.  The class does not
    depend on the reference choice; the default takes the two smallest marks
    different from i."""
    n = ring.n
    if not 1 <= i <= n:
        raise ValueError("mark out of range")
    if refs is None:
        refs = [m for m in range(1, n + 1) if m != i][:2]
    j, k = refs
    if len({i, j, k}) != 3:
        raise ValueError("reference marks must differ from i and each other")
    out = {}
    for gi, g in enumerate(ring.gens):
        side = set(g.part)
        other = set(range(1, n + 1)) - side
        if (i in side and {j, k} <= other) or (i in other and {j, k} <= side):
            out[(gi,)] = 1
    return out


def m0n_integrate(x, ring):
    """Top-degree integral; x is a {monomial: coeff} element or a bare
    monomial tuple of generator indices."""
    if isinstance(x, tuple):
        x = {x: 1}
    total = Fraction(0)
    index = {m: i for i, m in enumerate(ring.monomials[ring.top])}
    for mono, coeff in x.items():
        if len(mono) != ring.top:
            raise ValueError("integrand must have degree %d" % ring.top)
        mono = tuple(sorted(mono))
        pos = index.get(mono)
        if pos is None:
            if not ring._admissible(mono):
                continue
            raise ValueError("unknown monomial %r" % (mono,))
        total += coeff * ring._functional.get(pos, Fraction(0))
    if total.denominator == 1:
        return int(total)
    return total


def psi_multinomial(n, exponents):
    """The closed-form value of a pure psi-integral on M-bar_{0,n}."""
    ks = list(exponents)
    if sum(ks) != n - 3:
        raise ValueError("exponents must sum to n-3")
    out = factorial(n - 3)
    for k in ks:
        out //= factorial(k)
    return out
