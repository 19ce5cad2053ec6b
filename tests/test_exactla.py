"""Exact linear algebra kernel, cross-checked against sympy on small inputs."""

import copy
import random
from math import gcd, prod

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from m36 import exactla
from m36.exactla import (
    IntEchelon,
    peel,
    rank_over_rationals,
    reduce_row,
    rref_from_pivots,
    smith_from_echelon,
    smith_normal_form,
    submul,
    xgcd,
)
from oracles import nullspace_basis


def euclidean_insert(pivots, row):
    """Plain Euclidean insertion with rightmost pivots and no size reduction
    of the other entries: the reference whose leads IntEchelon must
    reproduce, since leads are invariants of the lattice."""
    row = {c: v for c, v in row.items() if v}
    while row:
        lead = max(row)
        b = pivots.get(lead)
        if b is None:
            pivots[lead] = row if row[lead] > 0 else {c: -v for c, v in row.items()}
            return
        g, s, t = xgcd(b[lead], row[lead])
        du, cu = b[lead] // g, row[lead] // g
        cols = b.keys() | row.keys()
        newb = {c: s * b.get(c, 0) + t * row.get(c, 0) for c in cols}
        row = {c: du * row.get(c, 0) - cu * b.get(c, 0) for c in cols}
        pivots[lead] = {c: v for c, v in newb.items() if v}
        row = {c: v for c, v in row.items() if v}


def random_matrix(rng, nrows, ncols, density=0.4, lo=-4, hi=4):
    """nrows {col: coeff} rows over columns 0..ncols-1."""
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    row[j] = v
        rows.append(row)
    return rows


def to_sympy(rows, ncols):
    data = sympy.zeros(len(rows), ncols)
    for i, row in enumerate(rows):
        for j, v in row.items():
            data[i, j] = v
    return data


def sympy_invariants(rows, ncols):
    sp = sympy_snf(to_sympy(rows, ncols))
    return [abs(sp[i, i]) for i in range(min(sp.shape)) if sp[i, i] != 0]


class TestHelpers:
    def test_xgcd(self):
        for a, b in [(12, 18), (-12, 18), (0, 5), (7, 0), (0, 0), (35, 64)]:
            g, s, t = xgcd(a, b)
            assert s * a + t * b == g
            assert g >= 0
            if a or b:
                assert a % g == 0 and b % g == 0


class TestRank:
    @pytest.mark.parametrize("seed", range(12))
    def test_rank_matches_sympy(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(1, 9)
        m = random_matrix(rng, rng.randint(1, 9), ncols)
        assert rank_over_rationals(m) == to_sympy(m, ncols).rank()

    def test_rank_can_drop_mod_p(self):
        # the row vanishes mod 5, but the rank is taken over Q
        assert rank_over_rationals([{0: 5}]) == 1

    def test_rows_are_read_not_consumed(self):
        # insert copies each row, so the plain-row entry points leave them
        m = [{0: 2, 1: 1}, {0: 4, 1: 0}]
        before = [dict(r) for r in m]
        assert rank_over_rationals(m) == 2
        assert smith_normal_form(m) == (1, 4)
        assert m == before


class TestSmith:
    def test_diag_2_3(self):
        m = [{0: 2}, {1: 3}]
        assert smith_normal_form(m) == (1, 6)

    def test_torsion_detected(self):
        m = [{0: 2, 1: 0}, {1: 2}]
        assert smith_normal_form(m) == (2, 2)

    def test_unit_case(self):
        m = [{0: 1, 1: 4}, {1: 1, 2: -7}]
        s = smith_normal_form(m)
        assert s == (1, 1)
        assert len(s) == 2
        assert smith_normal_form([]) == ()

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sympy(self, seed):
        rng = random.Random(200 + seed)
        ncols = rng.randint(1, 7)
        m = random_matrix(rng, rng.randint(1, 7), ncols)
        assert list(smith_normal_form(m)) == sympy_invariants(m, ncols)

    def test_saturated_lead_two_goes_through_hermite_passes(self, monkeypatch):
        # leads 2 and 2, yet the lattice is saturated: the Hermite passes
        # find that every invariant factor is 1
        m = [{0: 1, 1: 2}, {1: 1, 2: 2}]
        ech = IntEchelon()
        for row in m:
            ech.insert(dict(row))
        assert sorted(r[lead] for lead, r in ech.pivots.items()) == [2, 2]
        dense_calls = []
        dense = exactla._dense_snf

        def spy(rows):
            dense_calls.append(len(rows))
            return dense(rows)

        monkeypatch.setattr(exactla, "_dense_snf", spy)
        assert smith_from_echelon(ech) == (1, 1)
        assert dense_calls == [2]
        assert sympy_invariants(m, 3) == [1, 1]

    @pytest.mark.parametrize("seed", range(6))
    def test_unit_leads_skip_hermite_passes(self, seed, monkeypatch):
        # rows with a 1 at their rightmost column, each further right than
        # the last, give pivot rows whose leads are all 1: the invariant
        # factors are then all 1 without any Hermite pass.  Degree 4 and
        # the boundary matrices of the homology take this path
        rng = random.Random(1300 + seed)
        m = []
        for lead in sorted(rng.sample(range(12), rng.randint(1, 8))):
            row = {c: rng.randint(-5, 5) for c in range(lead)}
            row[lead] = 1
            m.append(row)
        m += [{c: 2 * v for c, v in row.items()} for row in m[:2]]
        ech = IntEchelon()
        for row in m:
            ech.insert(row)
        assert all(r[lead] == 1 for lead, r in ech.pivots.items())

        def no_dense(rows):
            raise AssertionError("Hermite passes ran")

        monkeypatch.setattr(exactla, "_dense_snf", no_dense)
        assert smith_from_echelon(ech) == (1,) * ech.rank
        assert sympy_invariants(m, 12) == [1] * ech.rank

    def test_two_torsion_falls_back_to_dense(self, monkeypatch):
        # a lead 2 sends its row, and only it, to the Hermite passes, which
        # find Z/2; the unit-lead row gives the factor 1
        m = [{0: 1, 1: 1}, {0: 1, 1: 3}]
        ech = IntEchelon()
        for row in m:
            ech.insert(dict(row))
        nonunit = sum(r[lead] != 1 for lead, r in ech.pivots.items())
        dense_calls = []
        dense = exactla._dense_snf

        def spy(rows):
            dense_calls.append(len(rows))
            return dense(rows)

        monkeypatch.setattr(exactla, "_dense_snf", spy)
        assert smith_from_echelon(ech) == (1, 2)
        assert dense_calls == [nonunit]
        assert sympy_invariants(m, 2) == [1, 2]

    @pytest.mark.parametrize("seed", range(8))
    def test_designed_torsion_falls_back_to_hermite_passes(self, seed, monkeypatch):
        # U * D * V with D a diagonal divisibility chain that ends in 2, 3, 4
        # or 6 times more factors, and U, V products of random elementary
        # operations: the invariant factors are exactly D's nonzero entries,
        # and the torsion sends the non-unit-lead rows to the Hermite passes
        rng = random.Random(700 + seed)
        nrows, ncols = rng.randint(6, 12), rng.randint(6, 12)
        rank = rng.randint(3, min(nrows, ncols))
        tail = [rng.choice((2, 3, 4, 6))]
        while len(tail) < rank - 1 and rng.random() < 0.5:
            tail.append(tail[-1] * rng.choice((1, 2, 3)))
        chain = [1] * (rank - len(tail)) + tail
        dense = [[0] * ncols for _ in range(nrows)]
        for i, d in enumerate(chain):
            dense[i][i] = d
        for _ in range(3 * (nrows + ncols)):
            q = rng.choice((-2, -1, 1, 2))
            if rng.random() < 0.5:
                i, j = rng.sample(range(nrows), 2)
                dense[i] = [a + q * b for a, b in zip(dense[i], dense[j])]
            else:
                i, j = rng.sample(range(ncols), 2)
                for row in dense:
                    row[i] += q * row[j]
        m = [{j: v for j, v in enumerate(row) if v} for row in dense]
        leads = exactla._echelon(m).pivots
        nonunit = sum(r[lead] != 1 for lead, r in leads.items())
        dense_calls = []
        fallback = exactla._dense_snf

        def spy(rows):
            dense_calls.append(len(rows))
            return fallback(rows)

        monkeypatch.setattr(exactla, "_dense_snf", spy)
        assert list(smith_normal_form(m)) == chain
        assert dense_calls == [nonunit]
        assert sympy_invariants(m, ncols) == chain

    def test_non_unit_rows_match_passes_over_all_pivot_rows(self):
        # smith_from_echelon splits off a 1 per unit lead and hands the passes
        # the fresh copies of the other rows; the passes over every pivot row
        # must agree.  Dense, sparse and {-1, 0, 1} matrices, some with rows
        # scaled by 2 or 3, and some whose non-unit copies are stale when
        # smith_from_echelon runs
        rng = random.Random(1600)
        split = stale = 0
        for i in range(300):
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            if i % 3 == 0:
                m = random_matrix(rng, nrows, ncols, density=0.9, lo=-9, hi=9)
            elif i % 3 == 1:
                m = random_matrix(rng, nrows, ncols, density=0.25, lo=-6, hi=6)
            else:
                m = random_matrix(rng, nrows, ncols, density=0.5, lo=-1, hi=1)
            m = [
                {c: rng.choice((2, 3)) * v for c, v in row.items()}
                if rng.random() < 0.2
                else row
                for row in m
            ]
            ech = exactla._echelon(m)
            pivots = ech.pivots
            want = exactla._dense_snf(list(pivots.values()))
            nonunit = [lead for lead, r in pivots.items() if r[lead] != 1]
            split += 0 < len(nonunit) < len(pivots)
            stale += any(
                not 0 <= v < pivots[c][c]
                for lead in nonunit
                for c, v in ech._reduced[lead].items()
                if c < lead and c in pivots
            )
            assert smith_from_echelon(ech) == want, i
        assert split >= 100
        assert stale >= 50

    def test_divisibility_chain(self):
        rng = random.Random(99)
        for _ in range(6):
            m = random_matrix(rng, 6, 6, density=0.7)
            d = smith_normal_form(m)
            for a, b in zip(d, d[1:]):
                assert b % a == 0


class TestKernel:
    @pytest.mark.parametrize("seed", range(10))
    def test_nullspace_matches_sympy(self, seed):
        rng = random.Random(300 + seed)
        ncols = rng.randint(2, 8)
        m = random_matrix(rng, rng.randint(1, 8), ncols)
        ours = nullspace_basis(m, ncols)
        sp = to_sympy(m, ncols)
        assert len(ours) == ncols - sp.rank()
        for vec in ours:
            col = sympy.Matrix([sympy.Rational(f.numerator, f.denominator) for f in vec])
            assert sp * col == sympy.zeros(len(m), 1)
        # linear independence: stack and check rank
        if ours:
            stacked = sympy.Matrix(
                [[sympy.Rational(f.numerator, f.denominator) for f in v] for v in ours]
            )
            assert stacked.rank() == len(ours)


class TestEchelonInternals:
    def test_rightmost_pivot_means_small_monomials_free(self):
        # one relation x0 + x2 = 0 pivots on x2, leaving x0 and x1 free
        ech = IntEchelon()
        assert ech.insert({0: 1, 2: 1}) == 2
        assert ech.insert({0: 2, 2: 2}) is None
        assert sorted(ech.pivots) == [2]

    def test_euclidean_exchange_preserves_lattice(self):
        ech = IntEchelon()
        ech.insert({0: 4})
        ech.insert({0: 6})
        # gcd appears as the pivot, lattice is 2Z
        assert ech.pivots[0] == {0: 2}
        assert ech.insert({0: 2}) is None

    def test_rref_unit_leads_stay_integer(self):
        # unit leads give unit row denominators
        ech = IntEchelon()
        ech.insert({0: 1, 1: 1, 3: 1})
        ech.insert({1: 1, 2: 1})
        rref = ech.rref()
        assert set(rref) == {2, 3}
        for num, den in rref.values():
            assert den == 1
            assert all(isinstance(v, int) for v in num.values())
            assert not (set(num) & set(rref))
        assert rref == {2: ({1: 1}, 1), 3: ({0: 1, 1: 1}, 1)}

    def test_rref_row_denominator_is_canonical(self):
        # 2 x1 + 4 x0 reduces to x1 + 2 x0 over 1; 3 x2 + x1 back-reduces
        # to x2 - (2/3) x0, stored as ({0: -2}, 3)
        ech = IntEchelon()
        ech.insert({0: 4, 1: 2})
        ech.insert({1: 1, 2: 3})
        rref = ech.rref()
        assert rref == {1: ({0: 2}, 1), 2: ({0: -2}, 3)}
        # x2 = (2/3) x0 modulo the rows; an explicit zero entry is dropped
        assert reduce_row({2: 1}, rref) == ({0: 2}, 3)
        assert reduce_row({0: 1, 1: 0, 2: 3}, rref) == ({0: 3}, 1)

    def test_insert_copies_and_returns_lead(self):
        ech = IntEchelon()
        row = {4: -3}
        assert ech.insert(row) == 4
        assert ech.pivots[4] == {4: 3}
        assert row == {4: -3}

    def test_zero_entry_is_never_a_lead(self):
        # an explicit zero in the rightmost column is not a pivot: the row's
        # lead is column 0, and the Smith form of (2 0) is (2,)
        ech = IntEchelon()
        row = {0: 2, 1: 0}
        assert ech.insert(row) == 0
        assert ech.pivots == {0: {0: 2}}
        assert row == {0: 2, 1: 0}
        assert smith_from_echelon(ech) == (2,)
        assert smith_normal_form([{0: 2, 1: 0}]) == (2,)


class TestHermiteInsert:
    @pytest.mark.parametrize("seed", range(16))
    def test_basis_stays_hermite_reduced(self, seed):
        # each row is Hermite-reduced once, when it is stored: a new pivot
        # row, and a row rewritten by a Euclidean exchange, hold every
        # smaller pivot column's entry in [0, that column's lead).  Rows
        # are sparse {-1, 0, 1}-heavy ones like the program's, or dense ones
        # with larger entries; every third row is an integer combination of
        # rows already inserted, so it lies in the lattice
        rng = random.Random(1100 + seed)
        ncols = rng.randint(4, 14)
        if seed % 2:
            rows = random_matrix(rng, 2 * ncols, ncols, density=0.6, lo=-9, hi=9)
        else:
            rows = random_matrix(rng, 2 * ncols, ncols, density=0.25, lo=-2, hi=2)
        ech = IntEchelon()
        reference = {}
        seen = []
        in_span = 0
        stored = 0
        for i, row in enumerate(rows):
            before = {lead: dict(r) for lead, r in ech.pivots.items()}
            if i % 3 == 2 and seen:
                row = {}
                for r in rng.sample(seen, min(3, len(seen))):
                    submul(row, r, rng.choice((-3, -1, 1, 2)))
                assert ech.insert(row) is None
                assert ech.pivots == before
                in_span += 1
            else:
                new = ech.insert(row)
                euclidean_insert(reference, row)
                seen.append(row)
                if new is not None:
                    stored += 1
                    r = ech.pivots[new]
                    assert new not in before
                    for c, v in r.items():
                        if c < new and c in ech.pivots:
                            assert 0 <= v < ech.pivots[c][c], (new, c, v)
                for lead, r in ech.pivots.items():
                    if lead != new and r != before[lead]:
                        # exchanged before any new pivot appeared
                        for c, v in r.items():
                            if c < lead and c in before:
                                assert 0 <= v < before[c][c], (lead, c, v)
            leads = {lead: r[lead] for lead, r in ech.pivots.items()}
            assert leads == {lead: r[lead] for lead, r in reference.items()}
            assert all(v > 0 for v in leads.values())
            assert all(max(r) == lead for lead, r in ech.pivots.items())
        assert in_span > 0 and stored > 0
        # each reduced copy is a lattice element with its pivot's lead: it
        # dies in a copy of the echelon and leaves the stored rows alone.
        # Brought up to date, it is reduced at every smaller pivot column
        assert set(ech._reduced) == set(ech.pivots)
        for lead, r in ech._reduced.items():
            assert max(r) == lead and r[lead] == ech.pivots[lead][lead]
            other = copy.deepcopy(ech)
            assert other.insert(r) is None
            assert other.pivots == ech.pivots
        for lead in ech.pivots:
            for c, v in ech._fresh(lead).items():
                if c < lead and c in ech.pivots:
                    assert 0 <= v < ech.pivots[c][c], (lead, c, v)

    def test_chain_of_stale_rows_is_walked_once(self, monkeypatch):
        # pivot i holds {i: 1, i - 1: -1}, stored from the top down, so no
        # stored row is reduced at the pivots below it.  {i: 1, 0: -1} is
        # the sum of pivots i, ..., 1: eliminating against the stored rows
        # walks the chain, n(n+1)/2 submul calls in all.  The chain is also
        # longer than the default recursion limit (1000)
        n = 2000
        ech = IntEchelon()
        for i in range(n, 0, -1):
            assert ech.insert({i: 1, i - 1: -1}) == i
        calls = 0

        def counting(row, b, q):
            nonlocal calls
            calls += 1
            submul(row, b, q)

        monkeypatch.setattr(exactla, "submul", counting)
        for i in range(n, 0, -1):
            assert ech.insert({i: 1, 0: -1}) is None
        assert calls < 4 * n

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_input_stays_small(self, seed):
        # 32 x 33, density 0.3, entries in [-99, 99]: plain Euclidean
        # insertion took 35 s here and reached 3.9 million bits
        rng = random.Random(seed)
        m = random_matrix(rng, 32, 33, density=0.3, lo=-99, hi=99)
        ech = IntEchelon()
        for row in m:
            ech.insert(row)
        entries = [v for r in ech.pivots.values() for v in r.values()]
        assert all(abs(v).bit_length() < 1000 for v in entries)
        dm = DomainMatrix.from_Matrix(to_sympy(m, 33)).convert_to(sympy.ZZ)
        assert ech.rank == dm.rank() == 32
        # leads above 2^32 go through the Hermite passes like any lead
        # that is not 1; with full row rank the product of the invariant
        # factors is the gcd of the maximal minors
        assert max(r[lead] for lead, r in ech.pivots.items()) > 2**32
        minors = [
            int(dm.extract(list(range(32)), [c for c in range(33) if c != j]).det())
            for j in range(33)
        ]
        assert prod(smith_from_echelon(ech)) == gcd(*minors)

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_invariant_factors_match_sympy(self, seed):
        rng = random.Random(1200 + seed)
        nrows = rng.randint(8, 14)
        m = random_matrix(rng, nrows, nrows + 1, density=0.3, lo=-99, hi=99)
        assert list(smith_normal_form(m)) == sympy_invariants(m, nrows + 1)

    def test_unfactored_lead_falls_back_to_hermite_passes(self):
        # leads with large prime factors are never factored: the Hermite
        # passes decide
        p, q = 2**61 - 1, 2**31 - 1  # both prime
        assert smith_normal_form([{0: p}]) == (p,)
        assert smith_normal_form([{0: p * q, 1: q}, {1: p}]) == (1, p * p * q)


def short_row_matrix(rng, nrows, ncols):
    """Rows of the kinds the peel sorts: +-x, +-x +- y, the same with a
    non-unit coefficient, and longer random rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.5:
            cols = rng.sample(range(ncols), rng.choice((1, 2, 2)))
            rows.append({c: rng.choice((-1, 1)) for c in cols})
        elif kind < 0.65:
            cols = rng.sample(range(ncols), rng.choice((1, 2)))
            rows.append({c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in cols})
        else:
            rows.append(random_matrix(rng, 1, ncols, density=0.35, lo=-3, hi=3)[0])
    return rows


def peeled_invariants(pivots, ech):
    """The invariant factors of the lattice from the peel's output: a 1 for
    each absorbed row, then those of the echelon of the rows it kept."""
    return (1,) * (len(pivots) - ech.rank) + smith_from_echelon(ech)


class TestPeel:
    """exactla.peel against one IntEchelon of all the rows: the same pivot
    columns, leads, rref and invariant factors."""

    @staticmethod
    def assert_same_lattice(rows, ncols, by_lead=False):
        before = copy.deepcopy(rows)
        pivots, ech = peel(rows, ncols, by_lead)
        assert rows == before
        ref = exactla._echelon(rows)
        assert {c: r[c] for c, r in pivots.items()} == {
            c: r[c] for c, r in ref.pivots.items()
        }
        # an echelon form: every row ends at its lead
        assert all(max(r) == c for c, r in pivots.items())
        assert set(ech.pivots) <= set(pivots)
        assert rref_from_pivots(dict(pivots)) == ref.rref()
        assert peeled_invariants(pivots, ech) == smith_from_echelon(ref)
        return pivots, ech

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_matrices_match_the_echelon(self, seed):
        rng = random.Random(2800 + seed)
        ncols = rng.randint(2, 14)
        rows = short_row_matrix(rng, rng.randint(1, 2 * ncols), ncols)
        pivots, ech = self.assert_same_lattice(rows, ncols)
        if seed < 12:
            assert list(peeled_invariants(pivots, ech)) == sympy_invariants(
                rows, ncols
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_long_merge_chains_match_the_echelon(self, seed):
        # mostly +-x +- y rows over many columns, so that components grow
        # by merging roots that already have children and the union-find
        # walks and compresses paths of several steps
        rng = random.Random(2900 + seed)
        ncols = rng.randint(20, 40)
        rows = [
            {c: rng.choice((-1, 1)) for c in rng.sample(range(ncols), 2)}
            for _ in range(ncols - 2)
        ]
        rows += short_row_matrix(rng, 8, ncols)
        rng.shuffle(rows)
        self.assert_same_lattice(rows, ncols)

    def test_ascending_leads_keep_the_lattice(self, monkeypatch):
        # unit-entry rows, as every relation row of the graded quotients
        # is: the rows the peel keeps go into the echelon in stream order or
        # by ascending largest column, and either way the pivot columns,
        # leads, invariant factors and rref are those of one echelon of all
        # the rows.  The stored rows differ, so the order reaches the
        # echelon.
        echelon, leads = exactla._echelon, []

        def spy(rows):
            rows = list(rows)
            leads.append([max(row) for row in rows])
            return echelon(rows)

        differ = 0
        for seed in range(30):
            rng = random.Random(3500 + seed)
            ncols = rng.randint(6, 30)
            rows = []
            for _ in range(rng.randint(ncols // 2, 2 * ncols)):
                cols = rng.sample(range(ncols), rng.randint(1, 6))
                rows.append({c: rng.choice((-1, 1)) for c in cols})
            _, stream = self.assert_same_lattice(rows, ncols)
            _, by_lead = self.assert_same_lattice(rows, ncols, by_lead=True)
            differ += stream.pivots != by_lead.pivots
            with monkeypatch.context() as m:
                m.setattr(exactla, "_echelon", spy)
                peel(rows, ncols)
                peel(rows, ncols, by_lead=True)
            kept, ascending = leads[-2:]
            assert ascending == sorted(kept)
        assert differ >= 10

    def test_compressed_path_keeps_its_sign(self):
        # x3 = -x2, x2 = -x1, x1 = -x0: reading x3 walks 3 -> 2 -> 1 -> 0
        # and finds x3 = -x0, so x3 + x4 = 0 makes x4 = x0
        rows = [{2: 1, 3: 1}, {1: 1, 2: 1}, {0: 1, 1: 1}, {3: 1, 4: 1}]
        pivots, ech = self.assert_same_lattice(rows, 5)
        assert pivots[4] == {0: -1, 4: 1}
        assert pivots[3] == {0: 1, 3: 1}
        assert pivots[2] == {0: -1, 2: 1}
        assert ech.rank == 0

    def test_sign_inconsistent_cycle_gives_two(self):
        # x - y and y - z merge z and y under x; x + z then reads 2x
        rows = [{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: 1}]
        pivots, ech = self.assert_same_lattice(rows, 3)
        assert ech.pivots == {0: {0: 2}}
        assert peeled_invariants(pivots, ech) == (1, 1, 2)

    def test_unit_singleton_zeroes_a_merged_component(self):
        # x1 = x0 and x2 = -x1 put 1 and 2 under 0; x2 = 0 then zeroes the
        # root 0, so the later x1 + 3 x3 reads 3 x3
        rows = [{0: -1, 1: 1}, {1: 1, 2: 1}, {2: 1}, {1: 1, 3: 3}]
        pivots, ech = self.assert_same_lattice(rows, 4)
        assert pivots == {1: {0: -1, 1: 1}, 2: {0: 1, 2: 1}, 0: {0: 1}, 3: {3: 3}}
        assert ech.pivots == {3: {3: 3}}
        assert peeled_invariants(pivots, ech) == (1, 1, 1, 3)

    def test_non_unit_two_term_row_reaches_the_echelon(self):
        rows = [{0: 2, 1: -2}, {2: 1, 3: -1}]
        pivots, ech = self.assert_same_lattice(rows, 4)
        assert ech.pivots == {1: {0: -2, 1: 2}}
        assert peeled_invariants(pivots, ech) == (1, 2)

    def test_signed_duplicates_die(self):
        rows = [
            {0: 1, 1: -1}, {0: -1, 1: 1}, {1: 1, 0: -1}, {2: -1}, {2: 1},
            {1: 2, 3: 2}, {1: -2, 3: -2},
        ]
        pivots, ech = self.assert_same_lattice(rows, 4)
        assert pivots == {1: {0: -1, 1: 1}, 2: {2: 1}, 3: {0: 2, 3: 2}}
        assert ech.rank == 1

    def test_row_turns_two_term_on_a_later_pass(self):
        # x0 + x1 + x2 + x3 is kept in the first pass; x3 = -x2 then makes
        # it x0 + x1, which the second pass merges, so no row is inserted
        rows = [{0: 1, 1: 1, 2: 1, 3: 1}, {2: 1, 3: 1}]
        pivots, ech = self.assert_same_lattice(rows, 4)
        assert pivots == {3: {2: 1, 3: 1}, 1: {0: 1, 1: 1}}
        assert ech.rank == 0


@pytest.mark.parametrize("seed", range(6))
def test_fraction_rref_solves(seed):
    # echelon + rref give a valid normal-form map: reduce a random row and
    # confirm that row minus its reduction lies in the row space over Q
    rng = random.Random(400 + seed)
    m = random_matrix(rng, 6, 8, density=0.5)
    ech = IntEchelon()
    for row in m:
        ech.insert(dict(row))
    sp = to_sympy(m, 8)
    probe = {j: rng.randint(-3, 3) for j in range(8)}
    probe = {j: v for j, v in probe.items() if v}
    rref = ech.rref()
    num, den = reduce_row(probe, rref)
    assert den >= 1
    diff = sympy.zeros(1, 8)
    for j, v in probe.items():
        diff[0, j] += v
    for j, v in num.items():
        diff[0, j] -= sympy.Rational(v, den)
    aug = sp.col_join(diff)
    assert aug.rank() == sp.rank()
    # the reduction has no support on pivot columns
    assert not (set(num) & set(rref))


def test_rref_rows_match_sympy():
    # rightmost pivots are sympy's leftmost pivots on the column-reversed
    # matrix, and a fully reduced row is unique given its pivot, so each
    # (num, den) row read as rationals is sympy's row for the same pivot
    nonunit = 0
    for seed in range(12):
        rng = random.Random(900 + seed)
        ncols = rng.randint(4, 9)
        m = random_matrix(rng, rng.randint(2, 7), ncols, density=0.6, lo=-6, hi=6)
        ech = IntEchelon()
        for row in m:
            ech.insert(row)
        nonunit += sum(1 for lead, row in ech.pivots.items() if row[lead] != 1)
        rref = ech.rref()
        rev, pivots = to_sympy(m, ncols)[:, ::-1].rref()
        assert sorted(ncols - 1 - p for p in pivots) == sorted(rref)
        for i, p in enumerate(pivots):
            lead = ncols - 1 - p
            num, den = rref[lead]
            assert den >= 1
            assert gcd(den, *num.values()) == 1
            assert not (set(num) & set(rref))
            want = {ncols - 1 - j: rev[i, j] for j in range(ncols) if rev[i, j]}
            got = {j: sympy.Rational(v, den) for j, v in num.items()}
            got[lead] = 1
            assert got == want, (seed, lead)
    assert nonunit >= 12
