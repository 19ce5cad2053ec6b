"""Exact sparse linear algebra over Z.

Everything here is built around one primitive: an insertion echelon form with
rightmost pivots.  Rows are {column: coefficient} dicts without zero entries
from end to end, and two kernels do their sparse arithmetic: submul (row -=
q * b, dropping zeros) and reduce_row (reduce a row by fully back-reduced
rows, which is how rref back-substitutes and how chowring takes normal
forms).  Rows arrive one at a time; each is reduced against the current
basis and either dies (it was in the span) or becomes a new pivot row.  Over
Z the reduction uses Euclidean exchanges, so row operations stay unimodular
and the row-span lattice is preserved exactly; no row is ever divided by its
content.  That gives three things at once:

  * the rank (number of pivot rows),
  * a torsion certificate: the pivot rows are triangular on their lead
    columns, so the product of the leads is a maximal minor and only its
    prime divisors can divide an invariant factor.  The cokernel is
    torsion-free exactly when the rank modulo each such prime equals the
    rational rank (the local rank check of the valence method of Dumas,
    Saunders and Villard, JSC 32, 2001); with every lead 1 nothing is left
    to check,
  * reduced row echelon data over Q for normal forms (rref).

Only when the rank drops at some lead prime does the Smith normal form fall
back to a dense textbook elimination of the echelon rows.

Matrices in this project have entries almost entirely in {-1, 0, 1} and very
sparse rows, which is why this pure-Python kernel is fast enough.  The
Euclidean phase does grow coefficients: the largest pivot-row entry of the
all-line-fiber build is about 9.6e12 (44 bits) in degree 3 and 5.1e10 in
degree 4, and a mixed config with seven plane fibers reaches 5.2e14 (49
bits) in degree 4.  Python integers carry these exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def submul(row, b, q):
    """row -= q * b, in place, dropping zeros.  b has no zero entries and q
    is nonzero."""
    get = row.get
    for col, v in b.items():
        nv = get(col, 0) - q * v
        if nv:
            row[col] = nv
        else:
            del row[col]


def reduce_row(row, reduced):
    """A copy of the {col: coeff} row reduced by fully back-reduced rows
    {lead: row} whose support avoids every lead; the result is supported on
    non-lead columns only."""
    out = dict(row)
    for c in [c for c in out if c in reduced]:
        coeff = out.pop(c)
        if coeff:
            submul(out, reduced[c], coeff)
    return out


class IntEchelon:
    """Insertion echelon over Z with rightmost (largest-column) pivots."""

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, row):
        """Reduce a {col: coeff} dict against the basis; returns the new pivot
        column, or None if the row was already in the span.  The row is
        copied without its zero entries, so the caller's dict is unchanged
        and a zero never becomes a lead."""
        pivots = self.pivots
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = max(row)
            b = pivots.get(lead)
            if b is None:
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                pivots[lead] = row
                return lead
            c, d = row[lead], b[lead]
            if c % d == 0:
                submul(row, b, c // d)
            else:
                g, s, t = xgcd(d, c)
                du, cu = d // g, c // g
                # unimodular exchange: det [[s, t], [-cu, du]] = (sd + tc)/g = 1
                newb = {}
                newrow = {}
                for col in b.keys() | row.keys():
                    bv = b.get(col, 0)
                    rv = row.get(col, 0)
                    nv = s * bv + t * rv
                    if nv:
                        newb[col] = nv
                    nv = du * rv - cu * bv
                    if nv:
                        newrow[col] = nv
                pivots[lead] = newb  # lead coefficient is g > 0
                row = newrow  # lead eliminated
        return None

    def rref(self):
        """Fully reduced rows over Q: {lead: {col: coeff}} with the (implicit)
        lead entry normalized to 1 and all other support on non-pivot columns.
        Coefficients stay int while the arithmetic allows, Fraction otherwise.
        """
        reduced = {}
        # ascending leads: every smaller pivot column is reduced before a row
        # that might contain it, and eliminating a pivot column only ever
        # introduces non-pivot support, so one pass per row suffices
        for lead in sorted(self.pivots):
            row = dict(self.pivots[lead])
            d = row.pop(lead)
            if d != 1:
                row = {c: Fraction(v, d) for c, v in row.items()}
            reduced[lead] = reduce_row(row, reduced)
        return reduced


class ModpEchelon:
    """Insertion echelon over GF(p), rightmost pivots, rows normalized monic."""

    def __init__(self, p):
        self.p = p
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, row):
        """row: {col: coeff} with integer coefficients, reduced mod p here
        (zeros are dropped; the dict is not modified).  Returns the new pivot
        column, or None if the row was already in the span mod p."""
        p = self.p
        pivots = self.pivots
        row = {c: v for c, v in ((c, v % p) for c, v in row.items()) if v}
        while row:
            lead = max(row)
            b = pivots.get(lead)
            if b is None:
                inv = pow(row[lead], p - 2, p)
                if inv != 1:
                    row = {c: v * inv % p for c, v in row.items()}
                pivots[lead] = row
                return lead
            q = row[lead]
            get = row.get
            for col, v in b.items():
                nv = (get(col, 0) - q * v) % p
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
        return None

    def kernel_basis(self, ncols):
        """Right-kernel basis mod p, one vector per non-pivot column; rows are
        already monic, so back-reduction needs no division."""
        p = self.p
        reduced = {}
        for lead in sorted(self.pivots):
            row = dict(self.pivots[lead])
            row.pop(lead)
            for c in [c for c in row if c in reduced]:
                coeff = row.pop(c)
                for col, v in reduced[c].items():
                    nv = (row.get(col, 0) - coeff * v) % p
                    if nv:
                        row[col] = nv
                    else:
                        row.pop(col, None)
            reduced[lead] = row
        pivot_cols = set(reduced)
        out = []
        for j in range(ncols):
            if j in pivot_cols:
                continue
            v = {j: 1}
            for lead, row in reduced.items():
                if j in row:
                    v[lead] = (-row[j]) % p
            out.append(v)
        return out


@dataclass(frozen=True)
class SmithInvariants:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    diagonal: tuple

    @property
    def rank(self):
        return len(self.diagonal)

    @property
    def torsion_free(self):
        """Whether the cokernel of the matrix (as a map into Z^ncols) has no
        torsion, i.e. all invariant factors are 1."""
        return all(d == 1 for d in self.diagonal)


def _echelon(rows):
    """An IntEchelon of an iterable of {col: coeff} integer rows."""
    ech = IntEchelon()
    for row in rows:
        ech.insert(row)
    return ech


def rank_over_rationals(rows):
    """Rank over Q of {col: coeff} integer rows, which is their rank over Z."""
    return _echelon(rows).rank


def smith_normal_form(rows):
    """Exact invariant factors of {col: coeff} integer rows."""
    return smith_from_echelon(_echelon(rows))


def _prime_factors(n):
    """Prime divisors of n >= 1 by trial division."""
    out = set()
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.add(n)
    return out


def smith_from_echelon(ech):
    """SmithInvariants of a matrix already fed through an IntEchelon.  The
    rank of the pivot rows is checked modulo every prime dividing a lead; if
    it is full at each, all invariant factors are 1, and otherwise the dense
    Smith form of the pivot rows decides."""
    primes = set()
    for value in {row[lead] for lead, row in ech.pivots.items()}:
        primes |= _prime_factors(value)
    for p in sorted(primes):
        local = ModpEchelon(p)
        for row in ech.pivots.values():
            local.insert(row)
        if local.rank < ech.rank:
            return SmithInvariants(tuple(_dense_snf(ech.pivots.values())))
    return SmithInvariants((1,) * ech.rank)


def _dense_snf(rows):
    """Textbook Smith normal form of {col: coeff} rows, which it copies;
    returns the nonzero invariant factors.  Quadratic-ish and meant for
    small residues."""
    rows = [dict(r) for r in rows if r]
    diag = []
    while rows:
        rows = [r for r in rows if r]
        if not rows:
            break
        # pick the entry with smallest |value| to control growth
        bi, bc, bv = -1, -1, 0
        for i, r in enumerate(rows):
            for c, v in r.items():
                if bv == 0 or abs(v) < abs(bv):
                    bi, bc, bv = i, c, v
        pivot_row, pivot_col = bi, bc
        while True:
            # clear the pivot column from other rows
            dirty = False
            pr = rows[pivot_row]
            pv = pr[pivot_col]
            for i, r in enumerate(rows):
                if i == pivot_row:
                    continue
                v = r.get(pivot_col)
                if v is None:
                    continue
                q = v // pv
                if q:
                    submul(r, pr, q)
                if r.get(pivot_col):
                    # remainder smaller than pivot; swap roles and restart
                    pivot_row = i
                    dirty = True
                    break
            if dirty:
                continue
            # pivot column clean; now clear the pivot row via column ops,
            # which only touch this row since the column is clean
            pr = rows[pivot_row]
            pv = pr[pivot_col]
            rem = None
            for c in list(pr):
                if c == pivot_col:
                    continue
                q, r_ = divmod(pr[c], pv)
                if r_ == 0:
                    del pr[c]
                else:
                    pr[c] = r_
                    rem = c
            if rem is not None:
                # a column remainder is smaller than the pivot; make it the
                # new pivot and repeat
                pivot_col = rem
                continue
            break
        pr = rows.pop(pivot_row)
        pv = abs(pr[pivot_col])
        diag.append(pv)
        if len(pr) != 1:
            raise AssertionError("pivot row not cleared")
    # enforce the divisibility chain by pairwise gcd/lcm repair
    diag.sort()
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
        diag.sort()
    return diag
