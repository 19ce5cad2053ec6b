"""Combinatorial layer: divisor labels, configurations, symmetry, incidence."""

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from m36 import labels
from m36.labels import (
    CYCLIC,
    DIVISORS,
    PAIR,
    SINGULAR_POINTS,
    TRIPLE,
    apply_perm,
    apply_perm_config,
    apply_perm_point,
    config_all_p1,
    config_all_p2,
    config_from_json_dict,
    cyclic,
    cyclic_partner,
    divisor_index,
    duality,
    enumerate_divisors,
    pair,
    perm_compose,
    perm_inverse,
    singular_point,
    triple,
)
from oracles import intersects, s2_triple_relations

divisors_st = st.sampled_from(DIVISORS)
perms_st = st.permutations((1, 2, 3, 4, 5, 6)).map(tuple)


class TestEnumeration:
    def test_counts(self):
        ds = enumerate_divisors()
        assert len(ds) == 65
        by_kind = {k: [d for d in ds if d.kind == k] for k in (TRIPLE, PAIR, CYCLIC)}
        assert len(by_kind[TRIPLE]) == 20
        assert len(by_kind[PAIR]) == 15
        assert len(by_kind[CYCLIC]) == 30

    def test_all_distinct_and_indexed(self):
        assert len(set(DIVISORS)) == 65
        for i, d in enumerate(DIVISORS):
            assert divisor_index(d) == i

    def test_order_is_triples_pairs_cyclics(self):
        kinds = [d.kind for d in DIVISORS]
        assert kinds == [TRIPLE] * 20 + [PAIR] * 15 + [CYCLIC] * 30

    def test_first_and_last(self):
        assert DIVISORS[0] == triple((1, 2, 3))
        assert DIVISORS[19] == triple((4, 5, 6))
        assert DIVISORS[20] == pair((1, 2))
        assert DIVISORS[34] == pair((5, 6))
        assert DIVISORS[35] == cyclic((1, 2), (3, 4), (5, 6))

    def test_triples_complementary_both_present(self):
        # the triple on {1,2,3} and the one on {4,5,6} are different divisors
        assert triple((1, 2, 3)) != triple((4, 5, 6))
        for t in itertools.combinations((1, 2, 3, 4, 5, 6), 3):
            assert triple(t) in set(DIVISORS)


class TestCanonicalization:
    def test_cyclic_rotation_equivalence(self):
        d = cyclic((3, 4), (5, 6), (1, 2))
        assert d == cyclic((1, 2), (3, 4), (5, 6))
        assert d.data == ((1, 2), (3, 4), (5, 6))

    def test_cyclic_partner_is_distinct(self):
        d = cyclic((1, 2), (3, 4), (5, 6))
        e = cyclic((1, 2), (5, 6), (3, 4))
        assert d != e
        assert cyclic_partner(d) == e
        assert cyclic_partner(e) == d

    def test_cyclic_unordered_pairs(self):
        assert cyclic((2, 1), (4, 3), (6, 5)) == cyclic((1, 2), (3, 4), (5, 6))

    def test_cyclic_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            cyclic((1, 2), (2, 3), (5, 6))
        with pytest.raises(ValueError):
            cyclic((1, 2), (3, 4), (5, 5))

    def test_triple_sorted(self):
        assert triple((3, 1, 2)).data == (1, 2, 3)
        with pytest.raises(ValueError):
            triple((1, 2, 2))

    def test_names(self):
        assert triple((1, 2, 3)).name() == "E[123]"
        assert pair((2, 1)).name() == "F[12]"
        assert cyclic((5, 6), (1, 2), (3, 4)).name() == "G[12,34,56]"


class TestSingularPoints:
    def test_count_is_matchings(self):
        assert len(SINGULAR_POINTS) == 15

    def test_point_name(self):
        pt = singular_point(((5, 6), (1, 2), (3, 4)))
        assert pt.name() == "P[12,34,56]"

    def test_rejects_non_matching(self):
        with pytest.raises(ValueError):
            singular_point(((1, 2), (2, 3), (4, 5)))


class TestConfigs:
    def test_all_p1_all_p2(self):
        c1, c2 = config_all_p1(), config_all_p2()
        assert all(c1.fiber(pt) == labels.FIBER_P1 for pt in SINGULAR_POINTS)
        assert all(c2.fiber(pt) == labels.FIBER_P2 for pt in SINGULAR_POINTS)
        assert c1.name() == "all-P1"
        assert c2.name() == "all-P2"

    def test_json_round_trip(self):
        pts = (SINGULAR_POINTS[3], SINGULAR_POINTS[7])
        cfg = labels.ResolutionConfig(s2=frozenset(pts))
        back = config_from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert back == cfg
        assert back.name() == "mixed-2"

    def test_rejects_duplicate_matchings(self):
        with pytest.raises(ValueError):
            config_from_json_dict({"S2": [["12", "34", "56"], ["34", "12", "56"]]})

    def test_rejects_overlapping_pairs(self):
        with pytest.raises(ValueError):
            config_from_json_dict({"S2": [["12", "23", "45"]]})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            config_from_json_dict({"S2": [], "extra": 1})


class TestDuality:
    def test_triple_goes_to_complement(self):
        assert duality(triple((1, 2, 3))) == triple((4, 5, 6))
        assert duality(triple((1, 4, 6))) == triple((2, 3, 5))

    def test_pair_fixed(self):
        for d in DIVISORS[20:35]:
            assert duality(d) == d

    def test_cyclic_example(self):
        # swapping the first two pairs of the cycle, then canonicalizing
        assert duality(cyclic((1, 2), (3, 4), (5, 6))) == cyclic((1, 2), (5, 6), (3, 4))

    def test_cyclic_duality_is_partner(self):
        for d in DIVISORS[35:]:
            assert duality(d) == cyclic_partner(d)

    def test_involution(self):
        for d in DIVISORS:
            assert duality(duality(d)) == d

    @given(perms_st, divisors_st)
    def test_commutes_with_s6(self, sigma, d):
        assert duality(apply_perm(sigma, d)) == apply_perm(sigma, duality(d))


class TestPermutations:
    def test_identity(self):
        for d in DIVISORS:
            assert apply_perm(labels.IDENTITY_PERM, d) == d

    def test_transposition_example(self):
        sigma = labels.transposition(1, 4)
        assert apply_perm(sigma, triple((1, 2, 3))) == triple((2, 3, 4))
        assert apply_perm(sigma, pair((1, 4))) == pair((1, 4))
        assert apply_perm(sigma, cyclic((1, 2), (3, 4), (5, 6))) == cyclic(
            (2, 4), (1, 3), (5, 6)
        )

    @given(perms_st, perms_st, divisors_st)
    def test_group_action(self, sigma, tau, d):
        lhs = apply_perm(perm_compose(sigma, tau), d)
        rhs = apply_perm(sigma, apply_perm(tau, d))
        assert lhs == rhs

    @given(perms_st)
    def test_inverse(self, sigma):
        assert perm_compose(sigma, perm_inverse(sigma)) == labels.IDENTITY_PERM

    @given(perms_st)
    def test_permutation_of_divisors_is_bijection(self, sigma):
        image = {apply_perm(sigma, d) for d in DIVISORS}
        assert len(image) == 65

    @given(perms_st)
    def test_points_permute(self, sigma):
        image = {apply_perm_point(sigma, pt) for pt in SINGULAR_POINTS}
        assert image == set(SINGULAR_POINTS)

    @given(perms_st)
    def test_config_equivariance(self, sigma):
        cfg = labels.ResolutionConfig(s2=frozenset(SINGULAR_POINTS[:4]))
        moved = apply_perm_config(sigma, cfg)
        for pt in SINGULAR_POINTS:
            assert moved.fiber(apply_perm_point(sigma, pt)) == cfg.fiber(pt)


class TestIncidence:
    def test_same_divisor_rejected(self):
        with pytest.raises(ValueError):
            intersects(triple((1, 2, 3)), triple((1, 2, 3)))

    def test_triple_triple(self):
        assert not intersects(triple((1, 2, 3)), triple((1, 2, 4)))
        assert intersects(triple((1, 2, 3)), triple((1, 4, 5)))
        assert intersects(triple((1, 2, 3)), triple((4, 5, 6)))

    def test_pair_pair(self):
        assert not intersects(pair((1, 2)), pair((1, 3)))
        assert intersects(pair((1, 2)), pair((3, 4)))

    def test_triple_pair(self):
        assert not intersects(triple((1, 2, 3)), pair((1, 4)))
        assert intersects(triple((1, 2, 3)), pair((1, 2)))
        assert intersects(triple((1, 2, 3)), pair((4, 5)))

    def test_partner_cyclics_depend_on_fiber(self):
        d = cyclic((1, 2), (3, 4), (5, 6))
        e = cyclic_partner(d)
        assert intersects(d, e, None)
        assert not intersects(d, e, config_all_p1())
        assert intersects(d, e, config_all_p2())

    def test_cyclics_different_matchings_never_meet(self):
        d = cyclic((1, 2), (3, 4), (5, 6))
        f = cyclic((1, 3), (2, 4), (5, 6))
        assert not intersects(d, f, None)
        assert not intersects(d, f, config_all_p2())

    def test_triple_cyclic(self):
        # {1,2,3} = {1,2} plus one of {3,4}: touches
        assert intersects(triple((1, 2, 3)), cyclic((1, 2), (3, 4), (5, 6)))
        assert intersects(triple((1, 2, 4)), cyclic((1, 2), (3, 4), (5, 6)))
        # consecutive-pair condition respects the cycle order
        assert intersects(triple((3, 4, 5)), cyclic((1, 2), (3, 4), (5, 6)))
        assert not intersects(triple((1, 2, 5)), cyclic((1, 2), (3, 4), (5, 6)))
        assert not intersects(triple((1, 3, 5)), cyclic((1, 2), (3, 4), (5, 6)))

    def test_pair_cyclic(self):
        g = cyclic((1, 2), (3, 4), (5, 6))
        assert intersects(pair((3, 4)), g)
        assert not intersects(pair((1, 3)), g)
        assert not intersects(pair((1, 5)), g)

    @given(divisors_st, divisors_st)
    def test_symmetric(self, a, b):
        if a == b:
            return
        for cfg in (None, config_all_p1(), config_all_p2()):
            assert intersects(a, b, cfg) == intersects(b, a, cfg)

    @given(perms_st, divisors_st, divisors_st)
    def test_equivariant(self, sigma, a, b):
        if a == b:
            return
        for cfg in (None, config_all_p1(), config_all_p2()):
            assert intersects(apply_perm(sigma, a), apply_perm(sigma, b), cfg) == intersects(
                a, b, cfg
            )

    def test_meeting_pair_count_unresolved(self):
        # 550 unordered meeting pairs before any choice of fibers
        n = sum(
            1
            for a, b in itertools.combinations(DIVISORS, 2)
            if intersects(a, b, None)
        )
        assert n == 550

    def test_disjoint_pair_counts_by_config(self):
        # choosing a line fiber at every point severs all 15 partner pairs
        c1 = sum(
            1
            for a, b in itertools.combinations(DIVISORS, 2)
            if not intersects(a, b, config_all_p1())
        )
        c2 = sum(
            1
            for a, b in itertools.combinations(DIVISORS, 2)
            if not intersects(a, b, config_all_p2())
        )
        assert c1 == 2080 - 535
        assert c1 == 1545
        assert c2 == 2080 - 550
        assert c2 == 1530


class TestS2Relations:
    def test_all_p1_has_none(self):
        assert s2_triple_relations(config_all_p1()) == []

    def test_all_p2_has_fifteen(self):
        rels = s2_triple_relations(config_all_p2())
        assert len(rels) == 15
        example = frozenset({pair((1, 2)), pair((3, 4)), pair((5, 6))})
        assert example in rels

    def test_single_point(self):
        pt = singular_point(((1, 2), (3, 4), (5, 6)))
        cfg = labels.ResolutionConfig(s2=frozenset({pt}))
        rels = s2_triple_relations(cfg)
        assert rels == [frozenset({pair((1, 2)), pair((3, 4)), pair((5, 6))})]
