"""The stable-curve oracle: Keel rings, psi-classes, multinomial integrals."""

import itertools
import multiprocessing
import random
from fractions import Fraction

import pytest

from m0n_common import compositions  # noqa: F401  (shared helper below)
from m36 import chowring
from m36.chowring import (
    RingElement,
    VerificationError,
    integrate,
    integrate_product,
    is_zero_in,
    normal_form,
    product,
    top_functional,
)
from oracles import (
    keel_reference_degrees,
    point_off_one,
    reference_product_table,
)
from m36.boundarycomplex import flag_complex
from m36.m0nring import (
    M0nRing,
    _keel_generators,
    m0n_compatible,
    m0n_divisor,
    m0n_divisors,
    m0n_psi,
    psi_multinomial,
)


def chain_monomial(ring):
    """A nested chain of boundary divisors cutting out a point: the marks
    1,2 collide, then 1,2,3, and so on up to degree n-3."""
    return tuple(
        sorted(
            ring.gen_index[m0n_divisor(ring.n, range(1, size + 1))]
            for size in range(2, 2 + ring.top)
        )
    )


@pytest.fixture(scope="module")
def r4():
    return M0nRing(4)


@pytest.fixture(scope="module")
def r5():
    return M0nRing(5)


@pytest.fixture(scope="module")
def r6():
    return M0nRing(6)


@pytest.fixture(scope="module")
def r7():
    return M0nRing(7)


class TestDivisors:
    def test_counts(self):
        assert len(m0n_divisors(4)) == 3
        assert len(m0n_divisors(5)) == 10
        assert len(m0n_divisors(6)) == 25
        assert len(m0n_divisors(7)) == 56

    def test_canonical_side_avoids_n(self):
        assert m0n_divisor(5, {4, 5}).part == (1, 2, 3)
        assert m0n_divisor(5, {1, 2, 3}).part == (1, 2, 3)
        assert m0n_divisor(6, {5, 6}).part == (1, 2, 3, 4)

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            m0n_divisor(5, {1})
        with pytest.raises(ValueError):
            m0n_divisor(4, {1, 2, 3})  # complement too small

    def test_compatibility(self):
        a = m0n_divisor(6, {1, 2})
        b = m0n_divisor(6, {1, 2, 3})
        c = m0n_divisor(6, {2, 3})
        assert m0n_compatible(a, b)
        assert not m0n_compatible(a, c)
        assert m0n_compatible(a, m0n_divisor(6, {3, 4}))
        # complementary sides name compatible (equal) classes
        assert m0n_compatible(m0n_divisor(6, {1, 2, 3}), m0n_divisor(6, {4, 5, 6}))


class TestRanks:
    def test_n4(self, r4):
        assert r4.ranks == (1, 1)

    def test_n5(self, r5):
        assert r5.ranks == (1, 5, 1)

    def test_n6(self, r6):
        assert r6.ranks == (1, 16, 16, 1)

    def test_n7(self, r7):
        # the first Keel ring of degree 4, the top degree of the six-lines
        # space
        assert r7.ranks == (1, 42, 127, 42, 1)

    def test_bad_n(self):
        with pytest.raises(ValueError, match="between 4 and 7"):
            M0nRing(3)
        with pytest.raises(ValueError, match="between 4 and 7"):
            M0nRing(8)


class TestKeelCertificate:
    """Keel's theorem: every Chow group of M-bar_{0,n} is free over Z."""

    def test_every_invariant_factor_is_one(self, r4, r5, r6, r7):
        for ring in (r4, r5, r6, r7):
            for dd in ring.degrees:
                assert len(dd.torsion) == len(dd.rref)
                assert all(d == 1 for d in dd.torsion)

    def test_pivot_row_counts(self, r4, r5, r6, r7):
        for ring, want in (
            (r4, (2,)),
            (r5, (5, 24)),
            (r6, (9, 114, 339)),
            (r7, (14, 419, 2254, 6250)),
        ):
            assert tuple(len(dd.rref) for dd in ring.degrees[1:]) == want

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_build_degrees_matches_the_reference(self, n, r4, r5, r6, r7):
        # build_degrees multiplies only the opening relations and runs n = 6
        # and 7 in the pool; every Keel relation in every degree, in
        # process, gives the same degrees
        ring = {4: r4, 5: r5, 6: r6, 7: r7}[n]
        want = keel_reference_degrees(ring)
        assert len(ring.degrees) == len(want) == n - 2
        for k, (got, ref) in enumerate(zip(ring.degrees, want)):
            for field in (
                "monomials", "index", "rank", "torsion", "rref", "basis_cols"
            ):
                assert getattr(got, field) == getattr(ref, field), (k, field)
            assert got.products.tolist() == ref.products.tolist(), k

    @pytest.mark.parametrize(
        "n,keel,opening", [(4, 2, 2), (5, 10, 5), (6, 30, 9), (7, 70, 14)]
    )
    def test_opening_relation_counts(self, n, keel, opening):
        relations = _keel_generators(m0n_divisors(n), n)
        assert len(relations) == keel
        assert len(chowring._opening_relations(relations)) == opening

    def test_degrees_zero_and_one_are_degree_calls(self, r5):
        complex_ = flag_complex(r5.gens, m0n_compatible)
        keel = _keel_generators(r5.gens, 5)
        for k in (0, 1):
            got, want = r5.degrees[k], chowring._degree(keel, complex_, k)
            for field in (
                "monomials", "index", "rank", "torsion", "rref", "basis_cols"
            ):
                assert getattr(got, field) == getattr(want, field), (k, field)
            assert got.products.tolist() == want.products.tolist(), k

    @pytest.mark.parametrize("n", [5, 6])
    def test_dropping_an_opening_relation_fails_the_build(self, monkeypatch, n):
        opening = chowring._opening_relations
        monkeypatch.setattr(
            chowring, "_opening_relations", lambda relations: opening(relations)[1:]
        )
        with pytest.raises(VerificationError, match=r"M-bar_\{0,%d\}" % n):
            M0nRing(n)
        assert multiprocessing.active_children() == []

    def test_two_term_degree_one_is_absorbed_and_certified(self, monkeypatch):
        # M-bar_{0,4}'s two Keel relations are D12 - D13 and D12 - D23: the
        # peel merges both, so no row reaches the integer echelon, and both
        # open a pivot.  The certificate compares the opening relations with
        # every degree-1 pivot, the absorbed ones included
        smith, echelon_ranks = chowring.smith_from_echelon, []

        def recording(ech):
            echelon_ranks.append(ech.rank)
            return smith(ech)

        monkeypatch.setattr(chowring, "smith_from_echelon", recording)
        ring = M0nRing(4)
        assert echelon_ranks == [0, 0]
        assert ring.ranks == (1, 1)
        assert ring.degrees[1].torsion == (1, 1)
        # x1 = x0 and x2 = x0; the build made the rref to certify the points
        assert ring.degrees[1].rref == {1: ({0: -1}, 1), 2: ({0: -1}, 1)}

        opening = chowring._opening_relations
        monkeypatch.setattr(
            chowring, "_opening_relations", lambda relations: opening(relations)[1:]
        )
        with pytest.raises(VerificationError, match=r"the 1 relations .*0,4"):
            M0nRing(4)

    def test_torsion_is_refused(self, monkeypatch):
        def with_a_two(ech):
            return (1,) * (ech.rank - 1) + (2,) if ech.rank else ()

        monkeypatch.setattr(chowring, "smith_from_echelon", with_a_two)
        with pytest.raises(VerificationError, match="torsion"):
            M0nRing(5)

    def test_top_functional_is_integral(self, r4, r5, r6, r7):
        for ring in (r4, r5, r6, r7):
            top = ring.degrees[ring.top]
            # one value per column of the top degree, zero or not
            assert len(top.functional) == len(top.monomials)
            assert any(top.functional)
            assert all(type(v) is int for v in top.functional)

    def test_top_functional_refuses_bad_input(self, r6):
        top = r6.degrees[r6.top]
        chain = top.index[chain_monomial(r6)]
        with pytest.raises(VerificationError, match="corank 1"):
            top_functional(r6.degrees[2], {0: 1})
        with pytest.raises(VerificationError, match="integral"):
            top_functional(top, {chain: 2})
        assert top_functional(top, {chain: 1}) == top.functional

    @pytest.mark.parametrize("n,points", [(4, 3), (5, 15), (6, 105), (7, 945)])
    def test_point_normalization_is_the_chain_normalization(self, n, points):
        # the functional is normalized on the first squarefree monomial and
        # checked on every other one; Keel's nested chain is one of them
        ring = M0nRing(n)
        top = ring.degrees[ring.top]
        squarefree = [m for m in top.monomials if len(set(m)) == len(m)]
        assert len(squarefree) == points
        assert chain_monomial(ring) in squarefree
        chain = top_functional(top, {top.index[chain_monomial(ring)]: 1})
        assert top.functional == chain
        assert all(chain[top.index[m]] == 1 for m in squarefree)

    def test_a_point_off_one_fails_the_certificate(self, r5):
        with pytest.raises(VerificationError, match="do not integrate to 1"):
            point_off_one(r5.degrees[r5.top]).functional


class TestKeelRelations:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_all_pairings_agree(self, n, r5, r6, r7):
        ring = {5: r5, 6: r6, 7: r7}[n]
        for quad in itertools.combinations(range(1, n + 1), 4):
            i, j, k, l = quad
            nfs = []
            for (a, b), (c, d) in (
                ((i, j), (k, l)),
                ((i, k), (j, l)),
                ((i, l), (j, k)),
            ):
                vec = {}
                for gi, g in enumerate(ring.gens):
                    side = set(g.part)
                    other = set(range(1, n + 1)) - side
                    if ({a, b} <= side and {c, d} <= other) or (
                        {a, b} <= other and {c, d} <= side
                    ):
                        vec[(gi,)] = 1
                nfs.append(normal_form(RingElement(vec), ring))
            assert nfs[0] == nfs[1] == nfs[2]


class TestPsi:
    def test_n4_psi_is_single_divisor(self, r4):
        # with references 2,3 the only admissible divisor is {1,4}|{2,3}
        psi1 = m0n_psi(1, r4)
        assert psi1 == RingElement({(r4.gen_index[m0n_divisor(4, {2, 3})],): 1})

    def test_reference_independence(self, r5, r6, r7):
        for ring in (r5, r6, r7):
            n = ring.n
            for i in range(1, n + 1):
                others = [m for m in range(1, n + 1) if m != i]
                base = None
                for refs in itertools.permutations(others, 2):
                    nf = normal_form(m0n_psi(i, ring, refs), ring)
                    if base is None:
                        base = nf
                    else:
                        assert nf == base

    def test_psi_integrals_n5(self, r5):
        psi1 = m0n_psi(1, r5)
        psi2 = m0n_psi(2, r5)
        assert integrate(product((psi1, psi1), r5), r5) == 1
        assert integrate(product((psi1, psi2), r5), r5) == 2

    def test_all_psi_monomials_match_multinomial(self, r4, r5, r6, r7):
        counts = {}
        for ring in (r4, r5, r6, r7):
            n = ring.n
            for ks in compositions(n - 3, n):
                elem = RingElement.one()
                for i, k in enumerate(ks, start=1):
                    for _ in range(k):
                        elem = product((elem, m0n_psi(i, ring)), ring)
                assert integrate(elem, ring) == psi_multinomial(n, ks), ks
                counts[n] = counts.get(n, 0) + 1
        assert counts == {4: 4, 5: 15, 6: 56, 7: 210}

    def test_kappa_one_powers(self, r4, r5, r6, r7):
        # kappa_1 = sum of the psi_i minus the total boundary; its top power
        # integrates to 1, 5, 61 and 1379 (Kaufmann, Manin and Zagier, Comm.
        # Math. Phys. 181, 1996)
        for ring, want in ((r4, 1), (r5, 5), (r6, 61), (r7, 1379)):
            psis = [m0n_psi(i, ring) for i in range(1, ring.n + 1)]
            boundary = RingElement({(g,): 1 for g in range(len(ring.gens))})
            kappa = sum(psis, RingElement.zero()) - boundary
            assert integrate_product([kappa] * ring.top, ring) == want, ring.n

    def test_string_equation(self, r5, r6, r7):
        # forgetting the last mark: a top-degree integral upstairs, psi_n
        # absent, is the sum of the integrals with one exponent lowered
        for upper, lower in ((r6, r5), (r7, r6)):
            for ks in compositions(upper.top, lower.n):
                up = RingElement.one()
                for i, k in enumerate(ks, start=1):
                    for _ in range(k):
                        up = product((up, m0n_psi(i, upper)), upper)
                lhs = integrate(up, upper)
                rhs = 0
                for i, k in enumerate(ks):
                    if k == 0:
                        continue
                    down = RingElement.one()
                    lowered = list(ks)
                    lowered[i] -= 1
                    for j, kk in enumerate(lowered, start=1):
                        for _ in range(kk):
                            down = product((down, m0n_psi(j, lower)), lower)
                    rhs += integrate(down, lower)
                assert lhs == rhs, (upper.n, ks)


class TestIntegration:
    def test_chain_normalization(self, r6):
        chain = chain_monomial(r6)
        assert integrate(RingElement({chain: 1}), r6) == 1

    def test_wrong_degree(self, r5):
        with pytest.raises(ValueError):
            integrate(RingElement({((0,)): 1}), r5)
        with pytest.raises(ValueError, match="exceeds degree 2"):
            normal_form(RingElement({(0, 0, 0): 1}), r5)

    def test_generator_index_out_of_range(self, r5):
        # an index past the 65 divisors, or negative, is no monomial at all;
        # one past the ring's 10 divisors names no vertex of it
        for mono, match in (
            ((0, 99), "bad monomial"),
            ((-1, 3), "bad monomial"),
            ((3, 10), "unknown generator index"),
        ):
            with pytest.raises(ValueError, match=match):
                integrate(RingElement({mono: 1}), r5)
            with pytest.raises(ValueError, match=match):
                product(
                    (RingElement({(mono[0],): 1}), RingElement({(mono[1],): 1})),
                    r5,
                )

    def test_normal_form_refuses_unknown_generators(self, r5):
        # 12 and 10 name no divisor of M(0,5), whose ten are 0 to 9: the
        # monomials are not admissible, but they are no monomials of the ring
        # either, so normal_form and is_zero_in raise as product does
        for coeffs in ({(12,): 1}, {(0,): 1, (3, 10): 2}):
            e = RingElement(coeffs)
            with pytest.raises(ValueError, match="unknown generator index"):
                normal_form(e, r5)
            with pytest.raises(ValueError, match="unknown generator index"):
                is_zero_in(e, r5)

    def test_divisor_times_psi_consistency(self, r5):
        # integrate D * psi1 two ways: directly, and after replacing D by its
        # degree-1 normal form
        psi1 = m0n_psi(1, r5)
        for gi in (0, 3, 7):
            d = RingElement({(gi,): 1})
            direct = integrate(product((d, psi1), r5), r5)
            nf = normal_form(d, r5)
            via_nf = integrate(product((nf, psi1), r5), r5)
            assert direct == via_nf


class TestProductTables:
    """chowring.product reads the product tables chowring builds for every
    degree: 65 slots per multiplier monomial, of which M(0,n) uses the
    first len(gens)."""

    def test_entry_by_entry(self, r5, r6, r7):
        for ring in (r5, r6, r7):
            assert len(ring.degrees[0].products) == 0
            for k in range(1, ring.top + 1):
                want = reference_product_table(
                    ring.degrees[k - 1].monomials, ring.degrees[k].index, 65
                )
                assert ring.degrees[k].products.tolist() == want, (ring.n, k)

    def test_multiply_matches_pairwise_product(self, r6):
        # the product term pair by term pair, each monomial sorted and looked
        # up, on seeded elements of mixed degree with int and Fraction
        # coefficients and inadmissible monomials
        rng = random.Random(36636)
        ngens = len(r6.gens)

        def element(degree):
            out = {}
            for _ in range(rng.randint(1, 8)):
                k = rng.randint(0, degree)
                mono = tuple(sorted(rng.randrange(ngens) for _ in range(k)))
                c = rng.choice((1, -2, 3, Fraction(1, 2), Fraction(-2, 3)))
                out[mono] = out.get(mono, 0) + c
            return out

        for _ in range(200):
            da = rng.randint(0, r6.top)
            a, b = element(da), element(r6.top - da)
            want = {}
            for ma, ca in a.items():
                for mb, cb in b.items():
                    mono = tuple(sorted(ma + mb))
                    if mono in r6.degrees[len(mono)].index:
                        want[mono] = want.get(mono, 0) + ca * cb
            got = product((RingElement(a), RingElement(b)), r6)
            assert got.coeffs == {m: c for m, c in want.items() if c}

    def test_degree_cap(self, r5):
        with pytest.raises(ValueError, match="exceeds"):
            product((RingElement({(0, 3): 1}), RingElement({(5,): 1})), r5)


class TestLinesOracle:
    """The plane-lines space on five lines is the same variety as the moduli
    of five-pointed rational curves; its psi-like classes have 0/1 products.
    """

    def test_pair_products(self, r5):
        def psi_lines(i, j):
            rest = [m for m in range(1, 6) if m not in (i, j)]
            k = rest[0]
            l, m = rest[1], rest[2]
            a = r5.gen_index[m0n_divisor(5, {j, k})]
            b = r5.gen_index[m0n_divisor(5, {l, m})]
            return RingElement({(a,): 1, (b,): 1})

        for i1, j1 in itertools.permutations(range(1, 6), 2):
            for i2, j2 in itertools.permutations(range(1, 6), 2):
                val = integrate(
                    product((psi_lines(i1, j1), psi_lines(i2, j2)), r5), r5
                )
                assert val == (0 if i1 == i2 else 1), (i1, j1, i2, j2)
