"""Named classes: pullbacks, psi, delta, canonical, curves, psi table."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from m36 import classes, labels
from m36.chowring import (
    RingElement,
    apply_perm_element,
    duality_element,
    integrate,
    is_zero_in,
    line_degrees,
    product,
    restrict_to_fiber,
)
from m36.classes import (
    K_COEFFS,
    KB_COEFFS,
    PICARD_TRIPLES,
    PSI_PAIRS,
    canonical_classes,
    canonical_divisor,
    curve_checks,
    delta_cyclic,
    delta_pair,
    delta_triple,
    load_published_psi_table,
    phi,
    picard_m36,
    psi,
    psi_choices,
    psi_orbits,
    psi_table,
    pullback_f,
    pullback_r,
    total_boundary,
)
from m36.exactla import rank_over_rationals
from m36.verification import load_baselines

pair_st = st.sets(st.integers(1, 6), min_size=2, max_size=2).map(
    lambda s: tuple(sorted(s))
)
perms_st = st.permutations((1, 2, 3, 4, 5, 6)).map(tuple)


def term_names(e):
    return {
        labels.DIVISORS[m[0]].name(): c for m, c in e.coeffs.items()
    }


class TestPullbacks:
    def test_r6_of_d12(self):
        got = term_names(pullback_r(6, (1, 2)))
        assert got == {
            "E[345]": 1,
            "F[12]": 1,
            "G[12,34,56]": 1,
            "G[12,35,46]": 1,
            "G[12,45,36]": 1,
        }

    def test_f6_of_d12(self):
        got = term_names(pullback_f(6, (1, 2)))
        assert got == {
            "E[126]": 1,
            "F[12]": 1,
            "G[12,36,45]": 1,
            "G[12,46,35]": 1,
            "G[12,56,34]": 1,
        }

    def test_index_clash(self):
        with pytest.raises(ValueError):
            pullback_f(1, (1, 2))
        with pytest.raises(ValueError):
            pullback_r(2, (1, 2))
        with pytest.raises(ValueError):
            pullback_f(7, (1, 2))
        with pytest.raises(ValueError):
            pullback_r(3, (4, 4))

    @given(perms_st, pair_st)
    def test_equivariance(self, sigma, ij):
        k = min(set(labels.LINES) - set(ij))
        img = tuple(sorted((sigma[ij[0] - 1], sigma[ij[1] - 1])))
        assert apply_perm_element(sigma, pullback_f(k, ij)) == pullback_f(
            sigma[k - 1], img
        )
        assert apply_perm_element(sigma, pullback_r(k, ij)) == pullback_r(
            sigma[k - 1], img
        )

    @given(pair_st)
    def test_duality_swaps_the_two_pullbacks(self, ij):
        k = max(set(labels.LINES) - set(ij))
        assert duality_element(pullback_f(k, ij)) == pullback_r(k, ij)
        assert duality_element(pullback_r(k, ij)) == pullback_f(k, ij)


class TestPsi:
    def test_default_representative(self):
        want = pullback_f(6, (2, 3)) + pullback_f(6, (4, 5)) + pullback_r(1, (2, 6))
        assert psi(1, 2) == want

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            psi(1, 1)
        with pytest.raises(ValueError):
            psi(1, 2, n=2)
        with pytest.raises(ValueError):
            psi(1, 2, n=6, k=6)

    def test_twelve_choices_agree(self, table):
        for i, j in ((1, 2), (4, 5)):
            choices = list(psi_choices(i, j))
            assert len(choices) == 12
            ref = choices[0]
            for cand in choices[1:]:
                assert is_zero_in(cand - ref, table)

    def test_phi_is_symmetric(self):
        assert phi(1, 2) == phi(2, 1)

    def test_published_quartic_values(self, table):
        a, b = psi(5, 6), psi(6, 5)
        assert integrate(product((a, a, b, b), table), table) == 1
        a, b = psi(1, 2), psi(2, 1)
        assert integrate(product((a, a, b, b), table), table) == 1
        assert integrate(psi(1, 2) * psi(2, 3) * psi(3, 1) * psi(4, 5), table) == 9
        assert integrate(psi(1, 2) * psi(2, 3) * psi(3, 4) * psi(5, 6), table) == 8
        # three equal first indices force zero
        a = psi(1, 2)
        assert integrate(product((a, a, psi(1, 3), psi(4, 5)), table), table) == 0


class TestDelta:
    def test_triple(self):
        assert delta_triple((3, 1, 2)) == RingElement.from_divisor(
            labels.triple((1, 2, 3))
        )

    def test_pair_terms(self):
        got = term_names(delta_pair((1, 2)))
        assert got == {
            "F[12]": 1,
            "G[12,45,36]": 1,
            "G[12,46,35]": 1,
            "G[12,56,34]": 1,
        }

    def test_cyclic_difference(self):
        d = delta_cyclic(((1, 2), (3, 4), (5, 6)))
        assert term_names(d) == {"G[12,34,56]": 1, "G[12,56,34]": -1}

    def test_cyclic_label_signs(self):
        d = delta_cyclic(((1, 2), (3, 4), (5, 6)))
        assert delta_cyclic(((3, 4), (1, 2), (5, 6))) == -d
        assert delta_cyclic(((5, 6), (1, 2), (3, 4))) == d

    def test_cyclic_convention_enforced(self):
        with pytest.raises(ValueError):
            delta_cyclic(((1, 2), (4, 5), (3, 6)))
        with pytest.raises(ValueError):
            delta_cyclic(((1, 2), (3, 4), (5, 6), (1, 2)))
        with pytest.raises(ValueError):
            delta_cyclic(((1, 2), (2, 3), (4, 5)))

    def test_all_deltas_descend(self, table):
        import itertools

        for ij in itertools.combinations(labels.LINES, 2):
            assert not any(line_degrees(delta_pair(ij)).values())
        for pt in labels.SINGULAR_POINTS:
            from m36.classes import _cyclic_label_of_matching

            lab = _cyclic_label_of_matching(pt.matching)
            assert not any(line_degrees(delta_cyclic(lab)).values())

    def test_picard_basis(self, table):
        basis, _ranks = picard_m36(table)
        assert len(basis) == 36
        assert len(PICARD_TRIPLES) == 6

    def test_picard_rank_reads_integer_rows(self, table, monkeypatch):
        # the normal forms of the delta classes have denominators 2 and 4;
        # rank_over_rationals takes integer rows, so each row is cleared
        # first; the fifteen line forms have rank 15, the deltas rank 36
        seen = []
        ranks = []

        def spy(rows):
            rows = list(rows)
            seen.extend(v for row in rows for v in row.values())
            r = rank_over_rationals(rows)
            ranks.append(r)
            return r

        monkeypatch.setattr(classes, "rank_over_rationals", spy)
        assert len(picard_m36(table)[0]) == 36
        assert ranks == [15, 36]
        assert seen
        assert all(type(v) is int for v in seen)


class TestCanonical:
    def test_coefficients(self):
        k = canonical_divisor()
        b = total_boundary()
        for d in labels.DIVISORS:
            key = (labels.divisor_index(d),)
            assert k.coeffs[key] == K_COEFFS[d.kind]
            assert k.coeffs[key] + b.coeffs[key] == KB_COEFFS[d.kind]
        assert K_COEFFS[labels.TRIPLE] == Fraction(-3, 10)
        assert K_COEFFS[labels.PAIR] == Fraction(-1, 5)
        assert K_COEFFS[labels.CYCLIC] == Fraction(1, 5)

    def test_report(self, table):
        cc = canonical_classes(table)
        assert cc["K_plus_B"] == cc["K"] + cc["B"]
        assert cc["identity_readings"] == ["cyclics-repeated"]
        assert cc["kb4"] == Fraction(1502)

    def test_kb4_matches_baseline(self, table):
        base = load_baselines()
        assert canonical_classes(table)["kb4"] == Fraction(base["kb4"])

    def test_kb_vanishes_on_lines(self, table):
        kb = canonical_divisor() + total_boundary()
        for pt in labels.SINGULAR_POINTS:
            assert restrict_to_fiber(kb, pt, table.config).coeffs == (0, 0)

    def test_kb_vanishes_on_planes_too(self, table_p2):
        kb = canonical_divisor() + total_boundary()
        pt = labels.singular_point(((1, 2), (3, 4), (5, 6)))
        assert restrict_to_fiber(kb, pt, table_p2.config).coeffs[1] == 0


class TestCurves:
    def test_all_pass(self, table):
        rep = curve_checks(table)
        assert rep["all_ok"]

    def test_values(self, table):
        rep = curve_checks(table)
        flat = {
            (name, row["against"]): row["value"]
            for name in ("pair-chain", "triple-chain", "pair-cyclic")
            for row in rep[name]
        }
        assert flat[("pair-chain", "F[12]")] == -1
        assert flat[("pair-chain", "G[12,34,56]")] == 1
        assert flat[("pair-chain", "r6*F[12]")] == 0
        assert flat[("triple-chain", "E[345]")] == -1
        assert flat[("triple-chain", "G[12,35,46]")] == 1
        assert flat[("pair-cyclic", "G[12,34,56]")] == -1
        assert flat[("pair-cyclic", "r6*F[12]")] == -1


@pytest.fixture(scope="module")
def report(table):
    return psi_table(table)


class TestPsiTable:
    def test_orbit_census(self, report):
        assert report["orbit_count"] == 126
        assert report["monomial_count"] == 40920

    def test_matches_published(self, report):
        assert report["published_mismatches"] == []
        assert report["vanishing_rule_violations"] == []

    def test_value_histogram(self, report):
        hist = Counter(r["value"] for r in report["rows"] if r["value"])
        assert hist == {1: 8, 2: 26, 3: 7, 4: 32, 5: 5, 6: 14, 7: 4, 8: 3, 9: 1}
        assert sum(hist.values()) == 100

    def test_mismatches_are_reported(self, monkeypatch, table):
        # one nonzero orbit left out of the published table, another changed
        pub = load_published_psi_table()
        missing, changed = sorted(pub)[:2]
        edited = {k: v for k, v in pub.items() if k != missing}
        edited[changed] += 1
        monkeypatch.setattr(classes, "load_published_psi_table", lambda: edited)
        got = psi_table(table)["published_mismatches"]
        name = classes._format_orbit
        assert sorted(got, key=lambda m: m["orbit"]) == sorted([
            {"orbit": name(missing), "computed": pub[missing], "published": None},
            {"orbit": name(changed), "computed": pub[changed],
             "published": pub[changed] + 1},
        ], key=lambda m: m["orbit"])

    def test_published_table_shape(self):
        pub = load_published_psi_table()
        assert len(pub) == 100
        assert set(pub.values()) <= set(range(1, 10))

    def test_orbits_partition_the_multisets(self):
        orbits = psi_orbits()
        assert len(orbits) == 126
        assert sum(size for _, size in orbits) == 40920
        assert len(PSI_PAIRS) == 30

    def test_values_config_independent(self, report, table_p2):
        rows = {r["orbit_representative"]: r["value"] for r in report["rows"]}
        rng = random.Random(6)
        psis = {p: psi(*p) for p in PSI_PAIRS}
        for rep_key in rng.sample(sorted(rows), 5):
            ms = [
                (int(p[0]), int(p[1])) for p in rep_key.split(".")
            ]
            prod = psis[ms[0]] * psis[ms[1]] * psis[ms[2]] * psis[ms[3]]
            assert integrate(prod, table_p2) == rows[rep_key]
