"""Exact linear algebra kernel, cross-checked against sympy on small inputs."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from m36 import exactla
from m36.exactla import (
    IntEchelon,
    ModpEchelon,
    rank_over_rationals,
    reduce_row,
    smith_from_echelon,
    smith_normal_form,
    xgcd,
)
from oracles import nullspace_basis


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


def rank_mod(rows, p):
    ech = ModpEchelon(p)
    for row in rows:
        ech.insert(row)
    return ech.rank


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

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_mod_p_matches(self, seed):
        rng = random.Random(100 + seed)
        m = random_matrix(rng, 8, 8)
        dm = DomainMatrix.from_Matrix(to_sympy(m, 8))
        for p in (2, 3, 1000003):
            assert rank_mod(m, p) == dm.convert_to(sympy.GF(p)).rank()

    def test_rank_can_drop_mod_p(self):
        m = [{0: 5}]
        assert rank_mod(m, 5) == 0
        assert rank_over_rationals(m) == 1

    def test_rows_are_read_not_consumed(self):
        # insert copies each row, so the plain-row entry points leave them
        m = [{0: 2, 1: 1}, {0: 4, 1: 0}]
        before = [dict(r) for r in m]
        assert rank_over_rationals(m) == 2
        assert smith_normal_form(m).diagonal == (1, 4)
        assert m == before


class TestSmith:
    def test_diag_2_3(self):
        m = [{0: 2}, {1: 3}]
        assert smith_normal_form(m).diagonal == (1, 6)

    def test_torsion_detected(self):
        m = [{0: 2, 1: 0}, {1: 2}]
        s = smith_normal_form(m)
        assert s.diagonal == (2, 2)
        assert not s.torsion_free

    def test_unit_case(self):
        m = [{0: 1, 1: 4}, {1: 1, 2: -7}]
        s = smith_normal_form(m)
        assert s.diagonal == (1, 1)
        assert s.torsion_free and s.rank == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sympy(self, seed):
        rng = random.Random(200 + seed)
        ncols = rng.randint(1, 7)
        m = random_matrix(rng, rng.randint(1, 7), ncols)
        assert list(smith_normal_form(m).diagonal) == sympy_invariants(m, ncols)

    def test_saturated_lead_two_is_certified_locally(self, monkeypatch):
        # leads 2 and 2, yet the lattice is saturated: full rank mod 2
        # certifies it without the dense Smith form
        m = [{0: 1, 1: 2}, {1: 1, 2: 2}]
        ech = IntEchelon()
        for row in m:
            ech.insert(dict(row))
        assert sorted(r[lead] for lead, r in ech.pivots.items()) == [2, 2]

        def no_dense(rows):
            raise AssertionError("dense Smith form ran")

        monkeypatch.setattr(exactla, "_dense_snf", no_dense)
        assert smith_from_echelon(ech).diagonal == (1, 1)
        assert sympy_invariants(m, 3) == [1, 1]

    def test_two_torsion_falls_back_to_dense(self, monkeypatch):
        # the rank drops mod 2, so the dense Smith form finds Z/2
        m = [{0: 1, 1: 1}, {0: 1, 1: 3}]
        ech = IntEchelon()
        for row in m:
            ech.insert(dict(row))
        dense_calls = []
        dense = exactla._dense_snf

        def spy(rows):
            dense_calls.append(len(rows))
            return dense(rows)

        monkeypatch.setattr(exactla, "_dense_snf", spy)
        assert smith_from_echelon(ech).diagonal == (1, 2)
        assert dense_calls == [2]
        assert sympy_invariants(m, 2) == [1, 2]

    def test_divisibility_chain(self):
        rng = random.Random(99)
        for _ in range(6):
            m = random_matrix(rng, 6, 6, density=0.7)
            d = smith_normal_form(m).diagonal
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

    def test_kernel_of_echelon_mod_p(self):
        p = 1000003
        rng = random.Random(17)
        m = random_matrix(rng, 6, 9)
        ech = ModpEchelon(p)
        for row in m:
            ech.insert(row)
        basis = ech.kernel_basis(9)
        assert len(basis) == 9 - ech.rank
        for v in basis:
            for row in m:
                dot = sum(c * v.get(j, 0) for j, c in row.items()) % p
                assert dot == 0


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
        ech = IntEchelon()
        ech.insert({0: 1, 1: 1, 3: 1})
        ech.insert({1: 1, 2: 1})
        rref = ech.rref()
        assert set(rref) == {2, 3}
        for row in rref.values():
            assert all(isinstance(v, int) for v in row.values())
            assert not (set(row) & set(rref))

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
        assert smith_from_echelon(ech).diagonal == (2,)
        assert smith_normal_form([{0: 2, 1: 0}]).diagonal == (2,)


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
    reduced = reduce_row(probe, rref)
    diff = sympy.zeros(1, 8)
    for j, v in probe.items():
        diff[0, j] += sympy.Rational(Fraction(v))
    for j, v in reduced.items():
        diff[0, j] -= sympy.Rational(Fraction(v))
    aug = sp.col_join(diff)
    assert aug.rank() == sp.rank()
    # the reduction has no support on pivot columns
    assert not (set(reduced) & set(rref))
