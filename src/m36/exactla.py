"""Exact sparse linear algebra over Z.  Nothing here reduces modulo a prime;
ModpEchelon is a name without an implementation, kept for the benchmark's
tracer.

Everything here is built around one primitive: an insertion echelon form with
rightmost pivots.  Rows are {column: int} dicts without zero entries from end
to end, and two kernels do their sparse arithmetic: submul (row -= q * b,
dropping zeros) and reduce_row (reduce a row by fully back-reduced rows,
which is how rref back-substitutes and how chowring takes normal forms).
Rows arrive one at a time; each is reduced against the current basis and
either dies (it was in the span) or becomes a new pivot row.  Over Z the
reduction uses Euclidean exchanges, so row operations stay unimodular and
the row-span lattice is preserved exactly; no row is ever divided by its
content.  Each pivot row is reduced once, when it is stored: its entry at
every smaller pivot column then lies in [0, that column's lead).  A stored
row goes stale as pivots appear below it, so insertion eliminates against
a copy of each pivot row that is brought back to that reduced form when
insertion reaches it stale.  chowring puts peel in front of the echelon:
rows of at most two unit entries are absorbed by a signed union-find over
the columns, and only the rest are inserted.  The echelon gives three
things at once:

  * the rank (number of pivot rows),
  * a torsion certificate: the pivot rows are triangular on their lead
    columns, so the product of the leads is a maximal minor; with every
    lead 1 the cokernel is free and nothing is left to check,
  * the pivot rows, from which rref_from_pivots makes the reduced row
    echelon data over Q for normal forms (rref).

The rref reads the pivot rows alone, so it can be made later and in another
process: chowring keeps each degree's pivot rows from the build and makes
its rref on the first normal form or integral there.  Its rational rows
are kept fraction-free, in the manner of Bareiss (Math. Comp. 22, 1968):
integer numerators over one denominator per row, so back-substitution is
integer arithmetic throughout and a rational number appears only where
chowring reads a value out.

When some lead is not 1, each unit-lead row still splits off an invariant
factor 1, and the rest of the Smith normal form comes from alternating
Hermite passes over the rows whose lead is not 1: insert them into an
IntEchelon, transpose, and repeat until the matrix is diagonal.  On the
program's tables that takes a median 0.009 to 0.011 s in degree 2, the
most of any degree, and 0.001 s or less in degrees 1 and 3 (5 runs each on
all line fibers and all plane fibers, fresh copies of the rows included;
2 shared cores, CPython 3.11.7); degree 4 and the homology boundary
matrices have only unit leads.

Matrices in this project have entries almost entirely in {-1, 0, 1} and very
sparse rows, which is why this pure-Python kernel is fast enough.  Reducing
each row as it is stored keeps the pivot rows small: behind the peel their
largest entry has 3, 5, 5 and 3 bits in degrees 1 to 4 of the
all-line-fiber build, of the all-plane-fiber build and of a mixed config
with seven plane fibers.  Degrees 3 and 4 insert their kept rows by
ascending lead; in stream order those two have 4 and 2 bits on all line
fibers, but degree 3's echelon takes half as long again.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
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


def _canonical(num, den):
    """(num, den) divided by gcd(den, content(num)), so that equal rational
    rows get equal pairs."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {c: v // g for c, v in num.items()}
            den //= g
    return num, den


def reduce_row(row, reduced):
    """Reduce the {col: int} row by fully back-reduced rows {lead: (num,
    den)}, each standing for e_lead + num/den with num supported on non-lead
    columns.  Returns the reduction as a canonical pair (num, den): an int
    dict on non-lead columns over a denominator den >= 1 with
    gcd(den, content(num)) == 1.  The row is copied without its zero
    entries, so the caller's dict is unchanged.

    Eliminating a column with numerator a against (rn, rd) scales the row
    and den by rd // gcd(a, rd), then subtracts a // gcd(a, rd) times rn;
    a unit rd needs neither the gcd nor the scaling."""
    num = {c: v for c, v in row.items() if v}
    den = 1
    for c in [c for c in num if c in reduced]:
        a = num.pop(c)
        rn, rd = reduced[c]
        if rd != 1:
            g = gcd(a, rd)
            s = rd // g
            if s != 1:
                for col in num:
                    num[col] *= s
                den *= s
            a //= g
        submul(num, rn, a)
    return _canonical(num, den)


class IntEchelon:
    """Insertion echelon over Z with rightmost (largest-column) pivots.  A
    row is reduced once, when it is stored: its entry at each smaller pivot
    column c then lies in [0, lead of c).  pivots keeps each row as it was
    stored, and it goes stale as pivots appear below its lead.  Insertion
    subtracts _reduced[lead] instead: a copy of pivots[lead] brought back to
    reduced form at every smaller pivot column when insert reaches it, so a
    row in the span no longer walks a chain of stale rows one column at a
    time (path compression, as in union-find: Tarjan, J. ACM 22, 1975).  On
    the all-line-fiber build, inserting all the rows of degrees 3 and 4
    takes 50,430 and 74,534 submul calls, refreshes included, against
    238,513 and 752,006 when each row eliminates against the stored rows;
    inserting only the rows that peel keeps, by ascending lead, takes
    24,991 and 2,181, with 3,297 and 227 calls of _reduce, against 34,006
    and 1,918 calls, and 7,054 and 331, in stream order."""

    def __init__(self):
        self.pivots = {}
        self._reduced = {}

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, row):
        """Reduce a {col: coeff} dict against the basis; returns the new pivot
        column, or None if the row was already in the span.  The row is
        copied without its zero entries, so the caller's dict is unchanged
        and a zero never becomes a lead.

        Every step is unimodular, so the lattice and its leads are those of
        plain Euclidean insertion.  Reducing each pivot row as it is stored
        keeps entries small: three seeded dense 32 x 33 matrices with
        entries in [-99, 99] go in within 0.01 s each with pivot entries
        of at most 216 bits, where plain Euclidean insertion took 35 s and
        reached 3.9 million bits."""
        pivots = self.pivots
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = max(row)
            if lead not in pivots:
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                self._store(lead, row)
                return lead
            b = self._fresh(lead)
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
                # the lead coefficient of newb is g > 0
                self._store(lead, newb)
                row = newrow  # lead eliminated
        return None

    def _store(self, lead, row):
        """Put row in the basis at lead, reduced by _reduce.  It is its own
        reduced copy until a pivot appears below it; the copy of the row it
        replaces is dropped."""
        self.pivots[lead] = self._reduced[lead] = self._reduce(row, lead)

    def _fresh(self, lead):
        """_reduced[lead], re-reduced first if it is stale: if it holds an
        entry outside [0, lead of c) at some pivot column c.  The stale
        copies reachable from it through such entries are found with a
        stack, not recursion, since a chain can be as long as the matrix,
        and refreshed in ascending lead order, so that each subtracts copies
        already fresh."""
        pivots = self.pivots
        reduced = self._reduced
        stale = []
        stack = [lead]
        seen = {lead}
        while stack:
            x = stack.pop()
            fresh = True
            for c, v in reduced[x].items():
                if c < x and c in pivots and not 0 <= v < pivots[c][c]:
                    fresh = False
                    if c not in seen:
                        seen.add(c)
                        stack.append(c)
            if not fresh:
                stale.append(x)
        if stale:
            stale.sort()
            for x in stale:
                reduced[x] = self._reduce(dict(reduced[x]), x)
        return reduced[lead]

    def _reduce(self, row, lead):
        """Reduce row, in place, at every pivot column c below lead into
        [0, lead of c), largest column first, by subtracting multiples of
        _reduced[c].  Each step subtracts a row with a smaller lead, so the
        columns already reduced stay so; the pivot columns it brings in are
        queued.  The result depends only on row modulo the lattice of rows
        with smaller leads, so subtracting a copy or the stored row gives
        the same row.  Dicts never shrink after deletes, so it is returned
        rebuilt."""
        pivots = self.pivots
        reduced = self._reduced
        heap = [-c for c in row if c < lead and c in pivots]
        heapify(heap)
        while heap:
            c = -heappop(heap)
            v = row.get(c)
            if v is None:
                continue
            b = reduced[c]
            q = v // b[c]
            if q:
                submul(row, b, q)
                for x in b:
                    if x < c and x in pivots:
                        heappush(heap, -x)
        return dict(row)

    def rref(self):
        """rref_from_pivots of a copy of the pivot rows."""
        return rref_from_pivots(dict(self.pivots))


def _drain(items):
    """The items of a list in order, each dropped from the list as it is
    yielded, so that what replaces it need not wait for the whole list."""
    items.reverse()
    while items:
        yield items.pop()


def peel(rows, ncols, by_lead=False):
    """(pivots, ech) for the lattice of {col: coeff} integer rows over
    columns 0..ncols-1: pivots holds one {lead: row} row per lead of its
    echelon form with rightmost leads, and ech is the IntEchelon of the rows
    left over once the rows with at most two unit entries are absorbed by a
    signed union-find over the columns.  That is the first step of
    structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90);
    path compression is Tarjan's (J. ACM 22, 1975).

    The union-find reads x_c = sign[c] * x_parent[c], and the root of a
    component is its smallest column.  Each row is first rewritten on roots,
    without the roots that have been zeroed.  An empty row is dead; a row
    +-x_r zeroes the root r; a row +-x_a +- x_b with a > b merges a under b;
    every other row, a non-unit one such as 2x - 2y or 2x included, is kept.
    The kept rows are rewritten again, pass after pass, until a pass absorbs
    nothing; then they go into ech in stream order, or sorted by their
    largest column, ascending, when by_lead is true.  The order changes
    the cost and the stored rows, not the pivot columns, leads or rref.

    The pivot rows are e_b - sign[b] e_root(b) for each merged column b,
    e_r for each zeroed root r and ech's rows, which hold only the roots
    left.  Their leads differ, so they are an echelon form of the same
    lattice: it has the pivot columns, leads and rref of an IntEchelon of
    all the rows, and its invariant factors are a 1 for each absorbed row
    and then those of smith_from_echelon(ech).  On the all-line-fiber
    build, degree 4's 26,082 rows give 4,400 merges, 2,157 zeroed roots
    and 1,904 rows for ech; degree 3's 6,580 give 741, 186 and 4,956."""
    parent = list(range(ncols))
    sign = [1] * ncols
    zeroed = bytearray(ncols)
    absorbed = []

    def find(c):
        """The root of c, with the path from c compressed onto it and
        sign[c] made relative to it."""
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        for x in reversed(path):
            p = parent[x]
            if p != c:
                sign[x] *= sign[p]
                parent[x] = c
        return c

    pending = rows
    while True:
        before = len(absorbed)
        kept = []
        for row in pending:
            out = {}
            for c, v in row.items():
                r = parent[c]
                if r != c:
                    if parent[r] != r:
                        r = find(c)
                    v *= sign[c]
                if zeroed[r]:
                    continue
                v += out.get(r, 0)
                if v:
                    out[r] = v
                else:
                    out.pop(r, None)
            if len(out) == 1:
                ((r, v),) = out.items()
                if v == 1 or v == -1:
                    zeroed[r] = 1
                    absorbed.append(r)
                    continue
            elif len(out) == 2:
                (a, va), (b, vb) = out.items()
                if (va == 1 or va == -1) and (vb == 1 or vb == -1):
                    if a < b:
                        a, b = b, a
                    parent[a] = b
                    sign[a] = -va * vb
                    absorbed.append(a)
                    continue
            elif not out:
                continue
            kept.append(out)
        if len(absorbed) == before:
            break
        pending = _drain(kept)
    if by_lead:
        kept.sort(key=max)
    ech = _echelon(_drain(kept))
    pivots = {}
    for c in absorbed:
        pivots[c] = {c: 1} if zeroed[c] else {find(c): -sign[c], c: 1}
    pivots.update(ech.pivots)
    return pivots, ech


def rref_from_pivots(pivots):
    """Fully reduced rows over Q of an echelon's {lead: row} pivot rows, as
    {lead: (num, den)}: the row e_lead + num/den, where num is an int dict
    on non-pivot columns, den >= 1 and gcd(den, content(num)) == 1.  Unit
    leads whose back-substitution meets only unit leads give den == 1.  The
    rows may be stale: a row-space basis in echelon form has one rref.

    pivots is emptied: each row is popped as it is reduced, so the memory
    it frees serves the reduced rows that follow.  On the all-line-fiber
    table that keeps the peak RSS of a process that builds it and makes
    the rrefs of degrees 3 and 4 at 27.4-27.6 MB, against 29.3-29.6 MB when
    the rows were all dropped at the end and each reduced row kept the
    table its dict grew to (four runs each, CPython 3.11.7)."""
    reduced = {}
    # ascending leads: every smaller pivot column is reduced before a row
    # that might contain it, and eliminating a pivot column only ever
    # introduces non-pivot support, so one pass per row suffices.  The
    # lead column is not yet in reduced, so it survives the reduction
    # and its entry becomes the row's denominator.
    for lead in sorted(pivots):
        num, _den = reduce_row(pivots.pop(lead), reduced)
        den = num.pop(lead)
        reduced[lead] = _canonical(dict(num), den)
    return reduced


class ModpEchelon:
    """A shim with no implementation: every reduction in this module is over
    Z.  Its only reader is benchmark/tracing.py, which wraps these two
    methods by name; nothing calls them, so its exactla.modp_insert and
    exactla.modp_kernel counters read 0."""

    def insert(self, row):
        raise NotImplementedError("no mod-p echelon; use IntEchelon")

    def kernel_basis(self, ncols):
        raise NotImplementedError("no mod-p echelon; use IntEchelon")


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
    """Exact nonzero invariant factors, as a tuple, of {col: coeff} integer
    rows; the empty matrix gives ()."""
    return smith_from_echelon(_echelon(rows))


def smith_from_echelon(ech):
    """Nonzero invariant factors, as a tuple, of a matrix already fed through
    an IntEchelon: a 1 for each unit lead, then the Hermite passes of
    _dense_snf over the fresh copies of the rows whose lead is not 1.

    The split holds because a fresh copy (see _fresh) has an entry in
    [0, 1) = {0} at every smaller unit-lead column, and no entry right of
    its own lead.  Every vector of the lattice with 0 at all unit-lead
    columns is therefore a combination of the fresh non-unit copies: the
    copy with its largest lead must carry a non-unit lead, and subtracting
    it keeps those columns 0.  Each unit-lead row in turn expresses its
    lead column through smaller columns, so the cokernel is the free group
    on the other columns modulo the span of those copies, whose invariant
    factors the passes find.  On the all-line-fiber build 5, 31 and 3
    rows reach them in degrees 1 to 3, of the 14, 355 and 1,522 pivot rows
    of the echelon behind peel; with every lead 1 no pass runs."""
    nonunit = [lead for lead, row in ech.pivots.items() if row[lead] != 1]
    units = (1,) * (ech.rank - len(nonunit))
    if not nonunit:
        return units
    return units + _dense_snf([ech._fresh(lead) for lead in nonunit])


def _dense_snf(rows):
    """Nonzero invariant factors of {col: coeff} rows, which it copies, by
    alternating Hermite passes (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    A pass inserts the rows into an IntEchelon and transposes: old column c
    becomes a row {old lead: entry}, and the rows go in by descending c.
    The passes stop when every pivot row has a single entry.

    They end, and the argument needs only rightmost pivots.  Every row ends
    at its lead, so the largest pivot column L is the largest column and
    its lead d is the only entry there.  The transposed row {L: d} goes in
    first, and the next pivot at L is the gcd of d and the old row at L.
    Either it is smaller than d, or d divides that row: then every later
    entry at L is reduced away, {L: d} stays alone in its row and column
    for good, and the next largest pivot column goes the same way.
    Reducing each row as it is stored keeps the other entries small: on
    3,000 seeded random dense matrices of 2 to 16 rows and columns with
    entries in [-9, 9], the largest entry of any pass had 62 bits, against
    4,062 in the first pass of plain Euclidean insertion."""
    while True:
        pivots = _echelon(rows).pivots
        if all(len(row) == 1 for row in pivots.values()):
            break
        cols = {}
        for lead, row in pivots.items():
            for c, v in row.items():
                cols.setdefault(c, {})[lead] = v
        rows = [cols[c] for c in sorted(cols, reverse=True)]
    # enforce the divisibility chain by pairwise gcd/lcm repair
    diag = sorted(row[lead] for lead, row in pivots.items())
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
    return tuple(diag)
