"""Keel's presentation of A*(M-bar_{0,n}) for n up to 7, built by
chowring.build_degrees, the function that builds the tables of the
six-lines space.

The moduli spaces of stable rational curves have completely understood
intersection theory, so M0nRing is a known-answer test of that engine: its
answers are checked against classical results that owe nothing to the code.
Keel (Trans. AMS 330, 1992) gives the ranks and shows that the Chow groups
are free, which build_degrees certifies from the invariant factors of every
degree, after its certificate that the opening relations generate degree 1;
the psi integrals, by chowring.product and integrate, must match the
multinomial formula.

Boundary divisors are indexed by a side of the defining partition of the
marks; the canonical representative is the side not containing n.  Two
divisors multiply to zero unless their partitions are nested or disjoint,
so the boundary complex is the flag complex of that compatibility graph,
and for every 4-subset of marks the three ways of splitting it two against
two give linearly equivalent divisor sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from . import chowring
from .boundarycomplex import flag_complex


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


def _separating(gens, a, b):
    """Indices of the divisors among gens whose partition puts the marks a
    on one side and the marks b on the other."""
    a, b = set(a), set(b)
    out = []
    for gi, g in enumerate(gens):
        side = set(g.part)
        if (a <= side and not b & side) or (b <= side and not a & side):
            out.append(gi)
    return out


def _keel_generators(gens, n):
    """For every 4-subset, the three two-against-two splits give equal
    divisor sums; the pairwise differences as {generator index: coeff}.  No
    divisor separates two of the splits, so each difference is a union."""
    out = []
    for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
        first, *rest = (
            _separating(gens, ab, cd)
            for ab, cd in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
        )
        for other in rest:
            out.append({**dict.fromkeys(first, 1), **dict.fromkeys(other, -1)})
    return out


class M0nRing:
    """Graded quotient data for A*(M-bar_{0,n}), degrees 0 through n-3, by
    chowring.build_degrees from the flag complex of compatible divisors and
    Keel's linear relations; chowring's queries take it like a table, on
    RingElements over gens.  VerificationError where build_degrees raises,
    or unless every point of the top degree integrates to 1."""

    def __init__(self, n):
        if not 4 <= n <= 7:
            raise ValueError("n must be between 4 and 7")
        self.n = n
        self.top = n - 3
        self.gens = m0n_divisors(n)
        self.gen_index = {g: i for i, g in enumerate(self.gens)}
        self.degrees = chowring.build_degrees(
            flag_complex(self.gens, m0n_compatible),
            _keel_generators(self.gens, n),
            self.top,
            "M-bar_{0,%d}" % n,
        )
        self.degrees[self.top].functional  # certifies the points at build

    @property
    def ranks(self):
        return tuple(dd.rank for dd in self.degrees)


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
    return chowring.RingElement({(g,): 1 for g in _separating(ring.gens, {i}, {j, k})})


def psi_multinomial(n, exponents):
    """The closed-form value of a pure psi-integral on M-bar_{0,n}."""
    ks = list(exponents)
    if sum(ks) != n - 3:
        raise ValueError("exponents must sum to n-3")
    out = factorial(n - 3)
    for k in ks:
        out //= factorial(k)
    return out
