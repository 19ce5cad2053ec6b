"""Graded quotients: ring arithmetic, ranks, integration, fiber restriction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from m36 import chowring, classes, labels
from m36.chowring import (
    MAX_DEGREE,
    FiberValue,
    RingElement,
    admissible_monomials,
    apply_perm_element,
    blowup_rank_recursion,
    build_quotient,
    duality_element,
    integrate,
    is_zero_in,
    linear_relations,
    m36_chow_ranks,
    m36_subring_membership,
    multiply,
    normal_form,
    power,
    product,
    ranks_report,
    restrict_to_fiber,
)
from m36.boundarycomplex import build_complex
from m36.exactla import IntEchelon, rank_over_rationals, reduce_row
from m36.labels import (
    SINGULAR_POINTS,
    config_all_p1,
    config_all_p2,
    cyclic,
    pair,
    singular_point,
    triple,
)
from oracles import admissible_count_formula, multiplicative_relation_generators

coeff_st = st.integers(min_value=-4, max_value=4)
linear_st = st.dictionaries(st.integers(0, 64), coeff_st, max_size=4).map(
    lambda d: RingElement({(i,): c for i, c in d.items()})
)
perms_st = st.permutations((1, 2, 3, 4, 5, 6)).map(tuple)


def E(*idx):
    return RingElement.from_divisor(triple(idx))


def F(*idx):
    return RingElement.from_divisor(pair(idx))


def G(p1, p2, p3):
    return RingElement.from_divisor(cyclic(p1, p2, p3))


class TestRingElement:
    def test_zero_one(self):
        assert RingElement.zero().is_zero()
        assert RingElement.one().coeffs == {(): 1}
        assert (RingElement.one() * F(1, 2)) == F(1, 2)

    def test_from_divisors_accumulates(self):
        e = RingElement.from_divisors([pair((1, 2)), pair((1, 2))])
        assert e == F(1, 2).scale(2)

    def test_monomial_keys_must_be_sorted(self):
        with pytest.raises(ValueError):
            RingElement({(3, 1): 1})
        with pytest.raises(ValueError):
            RingElement({(0, 70): 1})

    def test_degrees(self):
        e = RingElement.one() + F(1, 2) + F(1, 2) * F(1, 2)
        assert e.degrees() == [0, 1, 2]
        with pytest.raises(ValueError):
            e.homogeneous_degree()

    def test_degree_cap(self):
        f = F(1, 2)
        f4 = f * f * f * f
        assert f4.degrees() == [4]
        with pytest.raises(ValueError):
            f4 * f

    def test_pow(self):
        f = F(1, 2) - G((1, 2), (3, 4), (5, 6))
        assert f ** 0 == RingElement.one()
        assert f ** 2 == f * f
        with pytest.raises(ValueError):
            f ** -1

    @given(linear_st, linear_st)
    def test_commutative(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(linear_st, linear_st, linear_st)
    def test_associative_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(linear_st)
    def test_sub_is_add_neg(self, a):
        assert a - a == RingElement.zero()
        assert (-a) + a == RingElement.zero()
        assert a.scale(3) == a + a + a

    @given(perms_st, linear_st, linear_st)
    def test_relabeling_is_a_ring_map(self, sigma, a, b):
        fa = apply_perm_element(sigma, a)
        fb = apply_perm_element(sigma, b)
        assert apply_perm_element(sigma, a * b) == fa * fb
        assert apply_perm_element(sigma, a + b) == fa + fb

    @given(linear_st)
    def test_duality_involution(self, a):
        assert duality_element(duality_element(a)) == a

    def test_repr_names_divisors(self):
        e = F(1, 2) + E(1, 2, 3).scale(-2)
        s = repr(e)
        assert "F[12]" in s and "E[123]" in s and "-2" in s
        assert repr(RingElement.zero()) == "0"


class TestRelationGenerators:
    def test_sixty_linear_generators(self):
        gens = linear_relations()
        assert len(gens) == 60
        for g in gens:
            assert g.degrees() == [1]

    def test_lattice_rank_fourteen(self):
        ech = IntEchelon()
        for g in linear_relations():
            ech.insert({m[0]: c for m, c in g.coeffs.items()})
        assert ech.rank == 14

    def test_multiplicative_counts(self):
        quad_p1 = multiplicative_relation_generators(config_all_p1())
        quad_p2 = multiplicative_relation_generators(config_all_p2())
        # every generator indexes a square-free monomial
        assert all(len(set(m)) == len(m) for m in quad_p1)
        # non-edges of the complex, plus one cubic per plane fiber
        assert len([m for m in quad_p2 if len(m) == 3]) == 15
        assert len([m for m in quad_p1 if len(m) == 2]) == 65 * 64 // 2 - 535
        assert len([m for m in quad_p2 if len(m) == 2]) == 65 * 64 // 2 - 550


class TestAdmissibleMonomials:
    @pytest.mark.parametrize(
        "cfg,counts",
        [
            (config_all_p1(), (1, 65, 600, 2500, 6785)),
            (config_all_p2(), (1, 65, 615, 2560, 6935)),
        ],
    )
    def test_counts(self, cfg, counts):
        c = build_complex(cfg)
        for k in range(MAX_DEGREE + 1):
            assert len(admissible_monomials(c, k)) == counts[k]
            assert admissible_count_formula(c.f_vector(), k) == counts[k]

    def test_counts_match_formula_on_mixed_configs(self):
        rng = random.Random(17)
        for _ in range(3):
            k = rng.randint(1, 14)
            cfg = labels.ResolutionConfig(
                s2=frozenset(rng.sample(SINGULAR_POINTS, k))
            )
            c = build_complex(cfg)
            for d in range(MAX_DEGREE + 1):
                assert len(admissible_monomials(c, d)) == admissible_count_formula(
                    c.f_vector(), d
                )

    def test_lex_sorted_and_supported_on_faces(self):
        c = build_complex(config_all_p1())
        monos = admissible_monomials(c, 3)
        assert monos == sorted(monos)
        faces = {f for d in range(3) for f in c.faces[d]}
        for m in monos[::97]:
            assert tuple(sorted(set(m))) in faces


class TestBuildQuotient:
    def test_exact_all_p1(self, table):
        assert table.ranks == (1, 51, 127, 51, 1)
        assert table.torsion_free
        assert table.torsion_certified_degrees == (0, 1, 2, 3, 4)
        assert table.admissible_counts() == (1, 65, 600, 2500, 6785)

    def test_two_prime_matches(self, table):
        # the mode is a report label: one certified table serves both, and
        # the reports differ in the label alone
        exact = ranks_report(table, mode="exact")
        two_prime = ranks_report(table, mode="two-prime")
        assert exact.pop("mode") == "exact"
        assert two_prime.pop("mode") == "two-prime"
        assert exact == two_prime

    def test_all_p2(self, table_p2):
        assert table_p2.ranks == (1, 51, 142, 51, 1)
        assert table_p2.admissible_counts() == (1, 65, 615, 2560, 6935)

    def test_basis_is_lex_smallest(self, table):
        # rightmost pivots leave the lexicographically first monomials free
        basis1 = table.basis_monomials(1)
        assert len(basis1) == 51
        assert basis1 == tuple(sorted(basis1))
        assert basis1[0] == (0,)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            build_quotient(config_all_p1(), mode="modular")

    def test_report_shape(self, table):
        rep = ranks_report(table, mode="two-prime")
        assert rep["ranks"] == [1, 51, 127, 51, 1]
        assert rep["torsion_free"] is True
        assert rep["torsion_certified_degrees"] == [0, 1, 2, 3, 4]
        assert rep["admissible_monomials"] == [1, 65, 600, 2500, 6785]
        assert rep["config"] == {"S2": []}
        assert rep["mode"] == "two-prime"
        assert isinstance(rep["runtime_ms"], int)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_relation_row_reduces_to_zero(self, table, k):
        # every row of the sixty generators times the degree-(k-1)
        # monomials lies in the span of the pivot rows
        dd = table.degrees[k]
        rows = 0
        for rid, row in table.relation_row_stream(k):
            assert reduce_row(row, dd.rref) == {}, rid
            rows += 1
        assert rows >= 60


class TestNormalForm:
    def test_relations_vanish(self, table):
        for g in linear_relations()[::7]:
            assert is_zero_in(g, table)

    def test_products_of_relations_vanish(self, table):
        rng = random.Random(3)
        gens = linear_relations()
        for _ in range(12):
            g = rng.choice(gens)
            d = RingElement.from_divisor(rng.choice(labels.DIVISORS))
            assert is_zero_in(g * d, table)
        g = rng.choice(gens)
        m = F(1, 2) * F(3, 4)
        assert is_zero_in(g * m, table)

    def test_relabeled_relations_vanish(self, table):
        rng = random.Random(4)
        gens = linear_relations()
        for _ in range(10):
            sigma = tuple(rng.sample(range(1, 7), 6))
            assert is_zero_in(apply_perm_element(sigma, rng.choice(gens)), table)

    def test_inadmissible_monomials_vanish(self, table):
        # triples sharing two lines never meet, nor does a pair meet a
        # cyclic whose matching avoids it
        assert is_zero_in(E(1, 2, 3) * E(1, 2, 4), table)
        assert is_zero_in(F(1, 3) * G((1, 2), (3, 4), (5, 6)) ** 2, table)

    def test_idempotent_and_linear(self, table):
        e = F(1, 2) * F(1, 2) + E(1, 2, 3) * G((1, 2), (3, 4), (5, 6))
        nf = normal_form(e, table)
        assert normal_form(nf, table) == nf
        assert is_zero_in(e - nf, table)
        f = E(4, 5, 6) * F(1, 2)
        assert normal_form(e + f, table) == normal_form(
            nf + normal_form(f, table), table
        )

    def test_normal_form_supported_on_basis(self, table):
        e = G((1, 2), (3, 4), (5, 6)) ** 2
        nf = normal_form(e, table)
        basis = set(table.basis_monomials(2))
        assert nf.coeffs
        assert all(m in basis for m in nf.coeffs)

    def test_lazy_exact_escalation(self, table):
        # every degree is certified at build time, and a degree-3 normal
        # form reads the table without changing it
        assert table.torsion_certified_degrees == (0, 1, 2, 3, 4)
        before = [(dd.rref, dd.torsion) for dd in table.degrees]
        probe = linear_relations()[0] * F(1, 2) * F(1, 2)
        assert is_zero_in(probe, table)
        assert [(dd.rref, dd.torsion) for dd in table.degrees] == before
        assert table.torsion_free
        assert table.ranks == (1, 51, 127, 51, 1)


class TestIntegrate:
    def test_requires_degree_four(self, table):
        with pytest.raises(ValueError):
            integrate(F(1, 2), table)
        with pytest.raises(ValueError):
            integrate(RingElement.one() + F(1, 2) ** 4, table)
        assert integrate(RingElement.zero(), table) == 0

    def test_relation_times_cube_is_zero(self, table):
        rng = random.Random(9)
        cube = F(1, 2) * F(3, 4) * F(5, 6)
        for g in rng.sample(linear_relations(), 8):
            assert integrate(g * cube, table) == 0

    def test_functional_census(self, table):
        dd = table.degrees[4]
        values = [
            int(integrate(RingElement({m: 1}), table)) for m in dd.monomials
        ]
        nonzero = [v for v in values if v]
        assert len(values) == 6785
        assert len(nonzero) == 4265
        assert max(abs(v) for v in nonzero) == 6

    def test_s6_and_duality_invariance(self, table):
        rng = random.Random(21)
        monos = table.degrees[4].monomials
        for _ in range(25):
            e = RingElement({rng.choice(monos): 1})
            sigma = tuple(rng.sample(range(1, 7), 6))
            assert integrate(apply_perm_element(sigma, e), table) == integrate(
                e, table
            )
            assert integrate(duality_element(e), table) == integrate(e, table)

    def test_agrees_with_normal_form_route(self, table):
        rng = random.Random(30)
        monos = table.degrees[4].monomials
        for _ in range(10):
            e = RingElement(
                {rng.choice(monos): rng.randint(-3, 3) for _ in range(4)}
            )
            nf = normal_form(e, table)
            want = integrate(nf, table) if not nf.is_zero() else Fraction(0)
            assert integrate(e, table) == want

    def test_rational_coefficients(self, table):
        e = (F(1, 2) * F(3, 4) * F(5, 6) * F(1, 2)).scale(Fraction(1, 3))
        got = integrate(e, table)
        assert got.denominator == 3

    def test_poincare_pairing_is_perfect(self, table):
        b1 = table.basis_monomials(1)
        b3 = table.basis_monomials(3)
        rows = []
        for m1 in b1:
            row = {}
            for j, m3 in enumerate(b3):
                v = integrate(RingElement({tuple(sorted(m1 + m3)): 1}), table)
                if v:
                    row[j] = int(v)
            rows.append(row)
        assert rank_over_rationals(rows) == 51


def _atom_pool():
    """Degree-1 atoms of every kind the expression grammar names."""
    pool = [RingElement.from_divisor(d) for d in labels.DIVISORS]
    pool += [classes.psi(i, j) for i, j in classes.PSI_PAIRS]
    pool += [classes.phi(i, j) for i, j in classes.PSI_PAIRS if i < j]
    pool += [classes.delta_triple(t) for t in classes.PICARD_TRIPLES]
    pool += [classes.delta_pair(p) for p in [(1, 2), (3, 5), (4, 6)]]
    pool += [
        classes.delta_cyclic(classes._cyclic_label_of_matching(pt.matching))
        for pt in SINGULAR_POINTS[::4]
    ]
    pool += [classes.canonical_divisor(), classes.total_boundary()]
    return pool


def _pruned(e, t):
    """The free element without its inadmissible monomials."""
    return RingElement(
        {m: c for m, c in e.coeffs.items() if m in t.degrees[len(m)].index}
    )


class TestQuotientProduct:
    """The quotient product against the free-ring oracle."""

    # bounds the free-ring expansion the oracle pays: K^4 alone would
    # take half a minute
    MAX_FREE_PAIRS = 20000

    def _cases(self, rng, pool, count):
        """Seeded factor lists [(atom, exponent)] of total degree 1 to 4."""
        out = []
        while len(out) < count:
            degree = rng.randint(1, MAX_DEGREE)
            factors = []
            left = degree
            while left:
                n = rng.randint(1, left)
                factors.append((rng.choice(pool), n))
                left -= n
            cost = 1
            for atom, n in factors:
                cost *= len(atom.coeffs) ** n
            if cost <= self.MAX_FREE_PAIRS:
                out.append(factors)
        return out

    @pytest.mark.parametrize("name", ["table", "table_p2", "table_mixed"])
    def test_matches_free_product(self, request, name):
        t = request.getfixturevalue(name)
        rng = random.Random(4000 + len(t.config.s2))
        pool = _atom_pool()
        degrees_seen = set()
        for factors in self._cases(rng, pool, 60):
            free = RingElement.one()
            quot = RingElement.one()
            for atom, n in factors:
                free = free * atom ** n
                quot = multiply(quot, power(atom, n, t), t)
            assert quot == _pruned(free, t)
            assert normal_form(quot, t) == normal_form(free, t)
            if free.degrees() == [4]:
                assert integrate(quot, t) == integrate(free, t)
            for pt in SINGULAR_POINTS:
                assert restrict_to_fiber(quot, pt, t) == restrict_to_fiber(
                    free, pt, t
                )
            degrees_seen.update(free.degrees())
        assert degrees_seen == {1, 2, 3, 4}

    def test_sums_and_mixed_degrees(self, table):
        rng = random.Random(77)
        pool = _atom_pool()
        for _ in range(20):
            a = rng.choice(pool) + rng.choice(pool) * rng.choice(pool)
            b = rng.choice(pool) * rng.choice(pool) - RingElement.one().scale(3)
            quot = multiply(a, b, table)
            assert quot == _pruned(a * b, table)
            assert normal_form(quot, table) == normal_form(a * b, table)

    def test_zero_in_the_quotient(self, table):
        # F12 and F13 never meet: the product is zero in the ring, though
        # not in the free ring
        assert not (F(1, 2) * F(1, 3)).is_zero()
        assert multiply(F(1, 2), F(1, 3), table).is_zero()
        assert product([F(1, 2), F(3, 4), F(1, 3)], table).is_zero()

    def test_degree_cap_and_exponents(self, table):
        f = F(1, 2)
        with pytest.raises(ValueError):
            multiply(power(f, 4, table), f, table)
        with pytest.raises(ValueError):
            power(f, -1, table)
        assert power(f, 0, table) == RingElement.one()
        assert multiply(RingElement.zero(), power(f, 4, table), table).is_zero()

    def test_kb4(self, table):
        kb = classes.canonical_divisor() + classes.total_boundary()
        assert integrate(power(kb, 4, table), table) == 1502


class TestFiberRestriction:
    PT = singular_point(((1, 2), (3, 4), (5, 6)))

    def test_line_fiber_generator_images(self, table):
        pt = self.PT
        assert restrict_to_fiber(F(1, 2), pt, table).coeffs == (0, -1)
        assert restrict_to_fiber(F(1, 3), pt, table).coeffs == (0, 0)
        assert restrict_to_fiber(E(1, 2, 3), pt, table).coeffs == (0, 0)
        assert restrict_to_fiber(
            G((1, 2), (3, 4), (5, 6)), pt, table
        ).coeffs == (0, 1)
        assert restrict_to_fiber(
            G((1, 2), (5, 6), (3, 4)), pt, table
        ).coeffs == (0, 1)
        assert restrict_to_fiber(
            G((1, 3), (2, 4), (5, 6)), pt, table
        ).coeffs == (0, 0)

    def test_plane_fiber_generator_images(self, table_p2):
        pt = self.PT
        assert restrict_to_fiber(F(1, 2), pt, table_p2).coeffs == (0, 1, 0)
        assert restrict_to_fiber(
            G((1, 2), (3, 4), (5, 6)), pt, table_p2
        ).coeffs == (0, -1, 0)
        assert restrict_to_fiber(E(1, 2, 3), pt, table_p2).coeffs == (0, 0, 0)

    def test_truncation(self, table, table_p2):
        f = F(1, 2)
        assert restrict_to_fiber(f * f, self.PT, table).coeffs == (0, 0)
        sq = restrict_to_fiber(f * f, self.PT, table_p2)
        assert sq.coeffs == (0, 0, 1)
        cube = F(1, 2) * F(3, 4) * F(5, 6)
        assert restrict_to_fiber(cube, self.PT, table_p2).is_zero()

    def test_multiplicative_on_samples(self, table, table_p2):
        rng = random.Random(13)
        for t in (table, table_p2):
            for _ in range(40):
                a = RingElement.from_divisor(rng.choice(labels.DIVISORS))
                b = RingElement.from_divisor(rng.choice(labels.DIVISORS))
                pt = rng.choice(SINGULAR_POINTS)
                ra = restrict_to_fiber(a, pt, t)
                rb = restrict_to_fiber(b, pt, t)
                assert restrict_to_fiber(a * b, pt, t) == ra * rb

    def test_relations_restrict_to_zero(self, table, table_p2):
        for t in (table, table_p2):
            for g in linear_relations():
                for pt in SINGULAR_POINTS:
                    assert restrict_to_fiber(g, pt, t).is_zero()

    def test_fiber_value_mismatch(self, table):
        a = restrict_to_fiber(F(1, 2), SINGULAR_POINTS[0], table)
        b = restrict_to_fiber(F(1, 2), SINGULAR_POINTS[1], table)
        with pytest.raises(ValueError):
            a + b

    def test_unknown_point(self, table):
        with pytest.raises(ValueError):
            restrict_to_fiber(F(1, 2), pair((1, 2)), table)

    def test_str(self, table, table_p2):
        assert str(restrict_to_fiber(F(1, 2), self.PT, table)) == "-p"
        assert str(restrict_to_fiber(F(1, 2) * F(1, 2), self.PT, table_p2)) == "h^2"
        assert str(restrict_to_fiber(E(1, 2, 3), self.PT, table)) == "0"


class TestSingularSpace:
    def test_membership_needs_all_line_table(self, table_p2):
        with pytest.raises(ValueError):
            m36_subring_membership(F(1, 2), table_p2)

    def test_bare_divisors_do_not_descend(self, table):
        assert not m36_subring_membership(F(1, 2), table)
        assert not m36_subring_membership(
            G((1, 2), (3, 4), (5, 6)), table
        )

    def test_triples_descend(self, table):
        assert m36_subring_membership(E(1, 2, 3), table)

    def test_higher_degrees_automatic(self, table):
        assert m36_subring_membership(F(1, 2) * F(1, 2), table)

    def test_chow_ranks(self, table):
        assert m36_chow_ranks(table) == (1, 36, 127, 51, 1)

    def test_chow_ranks_needs_all_line_table(self, table_p2):
        with pytest.raises(ValueError):
            m36_chow_ranks(table_p2)


class TestBlowupRecursion:
    def test_matches_quotient_ranks(self):
        assert blowup_rank_recursion() == (1, 51, 127, 51, 1)

    def test_center_budget(self):
        # 4+4+4+3+3+1+30 codimension-2 centers in the tower
        n = sum(c for step in chowring.BLOWUP_TOWER for c, _ in step)
        assert n == 49

    def test_degree_sums(self):
        # degree 1: base 2 plus one class per center
        assert 2 + 49 == 51
        # degree 2: base 3 plus the middle Chow rank of each center
        mids = {"P2": 1, "Bl4P2": 5, "P1xP1": 2, "Bl2P1xP1": 4, "Bl3P1xP1": 5}
        total = 3 + sum(
            c * mids[kind] for step in chowring.BLOWUP_TOWER for c, kind in step
        )
        assert total == 127
