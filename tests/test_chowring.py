"""Graded quotients: ring arithmetic, ranks, integration, fiber restriction."""

import functools
import hashlib
import json
import multiprocessing
import operator
import os
import pickle
import random
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from m36 import chowring, classes, exactla, labels
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
    line_degrees,
    line_forms,
    linear_relations,
    normal_form,
    product,
    VerificationError,
    ranks_report,
    restrict_to_fiber,
)
from m36.boundarycomplex import build_complex, flag_complex
from m36.exactla import IntEchelon, rank_over_rationals, reduce_row
from m36.m0nring import M0nRing, m0n_compatible, m0n_divisors
from m36.labels import (
    SINGULAR_POINTS,
    config_all_p1,
    config_all_p2,
    cyclic,
    pair,
    singular_point,
    triple,
)
from oracles import (
    admissible_count_formula,
    fiber_generator_image,
    free_fold,
    multiplicative_relation_generators,
    point_off_one,
    psi_functional,
    reference_admissible_monomials,
    reference_chain,
    reference_masks,
    reference_normal_form,
    reference_product_table,
)

coeff_st = st.integers(min_value=-4, max_value=4)
linear_st = st.dictionaries(st.integers(0, 64), coeff_st, max_size=4).map(
    lambda d: RingElement({(i,): c for i, c in d.items()})
)
perms_st = st.permutations((1, 2, 3, 4, 5, 6)).map(tuple)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# seven plane fibers, the rest lines
MIXED_7 = labels.ResolutionConfig(
    s2=frozenset(random.Random(36636).sample(SINGULAR_POINTS, 7))
)


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

    def test_degree_cap(self):
        f = F(1, 2)
        f4 = f * f * f * f
        assert f4.degrees() == [4]
        with pytest.raises(ValueError):
            f4 * f

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

    def test_sums_match_fraction_arithmetic(self):
        # coefficients come from a small pool of objects, so that shared
        # objects meet as they do in sums of atoms, and from fresh ones
        rng = random.Random(36636)
        pool = [1, -2, 3, Fraction(1, 2), Fraction(-3, 10), Fraction(6, 5)]
        monos = [(i,) for i in range(12)] + [(0, i) for i in range(6)]

        def element():
            out = {}
            for m in rng.sample(monos, rng.randint(0, 12)):
                c = rng.choice(pool)
                out[m] = c if rng.random() < 0.7 else c * rng.choice((1, 2))
            return RingElement(out)

        for _ in range(300):
            a, b = element(), element()
            if rng.random() < 0.2:
                b = b - a  # every term of a meets one of b, some cancel
            sign = rng.choice((1, -1))
            got = (a + b if sign > 0 else a - b).coeffs
            want = {}
            for m in set(a.coeffs) | set(b.coeffs):
                v = Fraction(a.coeffs.get(m, 0)) + sign * Fraction(b.coeffs.get(m, 0))
                if v:
                    want[m] = v
            assert got == want
            for m, c in got.items():
                if m not in b.coeffs:
                    assert c is a.coeffs[m]
                elif m not in a.coeffs:
                    assert c is b.coeffs[m] or sign < 0
                elif type(a.coeffs[m]) is int and type(b.coeffs[m]) is int:
                    assert type(c) is int

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

    @pytest.mark.parametrize("name", ["all_p1", "all_p2", "mixed_7", "m0n_7"])
    def test_matches_the_filtered_enumeration(self, name):
        # each monomial is built as a face and a multiset on it, so nothing
        # is filtered out: the list is the filter's, order included
        if name == "m0n_7":
            c = flag_complex(m0n_divisors(7), m0n_compatible)
        else:
            cfg = {"all_p1": config_all_p1(), "all_p2": config_all_p2()}
            c = build_complex(cfg.get(name, MIXED_7))
        for k in range(MAX_DEGREE + 1):
            assert admissible_monomials(c, k) == reference_admissible_monomials(
                c, k
            ), k

    def test_lex_sorted_and_supported_on_faces(self):
        c = build_complex(config_all_p1())
        monos = admissible_monomials(c, 3)
        assert monos == sorted(monos)
        faces = {f for d in range(3) for f in c.faces[d]}
        for m in monos[::97]:
            assert tuple(sorted(set(m))) in faces


def reference_row_stream(generators, monomials_lower, index):
    """The relation rows entry by entry: each entry d of each generator forms
    its product monomial m*d by sorted insertion and looks up its column.
    Each row's keys are ascending."""
    for m in reversed(monomials_lower):
        for g in generators:
            row = {}
            for d, c in g.items():
                pos = bisect_right(m, d)
                col = index.get(m[:pos] + (d,) + m[pos:])
                if col is not None:
                    row[col] = c
            if row:
                yield dict(sorted(row.items()))


def degree_one_pivot_rows(cfg):
    """The admissible monomials of cfg by degree, their column indexes, and
    the generators that degrees 2-4 multiplied before they took the opening
    relations: the degree-1 pivot rows as stored, sorted by lead."""
    complex_ = build_complex(cfg)
    monomials = [admissible_monomials(complex_, k) for k in range(MAX_DEGREE + 1)]
    indexes = [{m: i for i, m in enumerate(ms)} for ms in monomials]
    raw = chowring._linear_relation_vectors()
    pivots = chowring._degree(raw, complex_, 1).pivots
    return monomials, indexes, [pivots[lead] for lead in sorted(pivots)]


def opening_relations():
    """The linear relations that degrees 2-4 multiply: those of the sixty
    that open a pivot when one echelon takes them in order."""
    return chowring._opening_relations(chowring._linear_relation_vectors())


class TestRowStream:
    @pytest.mark.parametrize(
        "cfg,degrees",
        [(config_all_p1(), (2, 3, 4)), (config_all_p2(), (2, 3)), (MIXED_7, (2, 3))],
        ids=["all_p1", "all_p2", "mixed_7"],
    )
    def test_column_map_gives_the_per_entry_rows(self, cfg, degrees):
        # the same rows in the same order, each with its keys ascending,
        # from the denser degree-1 pivot rows and from the sixty raw
        # generators that relation_row_stream uses
        monomials, indexes, pivot_rows = degree_one_pivot_rows(cfg)
        raw = chowring._linear_relation_vectors()
        for generators, ks in ((pivot_rows, degrees), (raw, (1, 2))):
            for k in ks:
                args = (generators, monomials[k - 1], indexes[k])
                products = chowring._product_table(
                    monomials[k - 1], monomials[k], len(labels.DIVISORS)
                )
                pairs = zip_longest(
                    chowring._row_stream(
                        generators, monomials[k - 1], products, len(labels.DIVISORS)
                    ),
                    reference_row_stream(*args),
                )
                for i, (got, want) in enumerate(pairs):
                    assert got is not None and want is not None, (k, i)
                    assert list(got.items()) == list(want.items()), (k, i)


class TestBuildQuotient:
    def test_exact_all_p1(self, table):
        assert table.ranks == (1, 51, 127, 51, 1)
        assert table.torsion_free
        assert table.torsion_certified_degrees == (0, 1, 2, 3, 4)
        assert table.admissible_counts() == (1, 65, 600, 2500, 6785)

    def test_degree_zero_is_the_unit(self, table):
        # degree 0 goes through the same _degree, with no relation rows
        dd = table.degrees[0]
        assert (dd.monomials, dd.index) == (((),), {(): 0})
        assert (dd.rank, dd.torsion, dd.rref, dd.basis_cols) == (1, (), {}, (0,))
        # the rref, once made, replaces the pivot rows
        assert dd.pivots is None

    def test_degrees_zero_and_one_are_degree_calls(self, table):
        complex_ = build_complex(config_all_p1())
        relations = chowring._linear_relation_vectors()
        for k in (0, 1):
            got, want = table.degrees[k], chowring._degree(relations, complex_, k)
            for field in (
                "monomials", "index", "rank", "torsion", "rref", "basis_cols"
            ):
                assert getattr(got, field) == getattr(want, field), (k, field)
            assert got.products.tolist() == want.products.tolist(), k

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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_relation_row_reduces_to_zero(self, table, k):
        # every row of the sixty generators times the degree-(k-1)
        # monomials lies in the span of the pivot rows
        dd = table.degrees[k]
        rows = 0
        for i, row in enumerate(table.relation_row_stream(k)):
            assert reduce_row(row, dd.rref) == ({}, 1), i
            rows += 1
        assert rows >= 60

    def test_opening_relations_generate_the_stream(self, monkeypatch):
        # degrees 2-4 multiply the 14 linear relations that open a degree-1
        # pivot, 20 entries each, not the 14 degree-1 pivot rows as stored
        # (404 entries, grown by Hermite reduction at store time, which
        # streamed 843, 7,504 and 30,489 rows); the lattice is the same, so
        # only the number of products that survive the admissibility filter
        # changes, and all of the extra rows died in the insert
        monkeypatch.setattr(chowring, "_pool_workers", lambda jobs: 0)
        row_stream = chowring._row_stream
        streamed = {}

        def counting(generators, lower, products, stride):
            rows = list(row_stream(generators, lower, products, stride))
            streamed[len(lower[0]) + 1 if lower else 0] = (
                len(generators),
                sum(map(len, generators)),
                len(rows),
            )
            return rows

        monkeypatch.setattr(chowring, "_row_stream", counting)
        build_quotient(labels.config_all_p1())
        assert {k: streamed[k] for k in (2, 3, 4)} == {
            2: (14, 280, 770),
            3: (14, 280, 6580),
            4: (14, 280, 26082),
        }

    def test_every_relation_dies_against_the_opening_ones(self):
        relations = chowring._linear_relation_vectors()
        opening = opening_relations()
        # pinned: 14 of the sixty, in their order
        assert opening == [
            relations[i] for i in (0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 20, 21, 24, 30)
        ]
        ech = IntEchelon()
        for r in opening:
            assert ech.insert(r) is not None
        assert [ech.insert(r) for r in relations] == [None] * 60

    def test_dropping_an_opening_relation_fails_the_build(self, monkeypatch):
        # the 14 are certified on every build: their echelon must have the
        # leads of degree 1, else the lattices differ
        opening = chowring._opening_relations
        monkeypatch.setattr(
            chowring, "_opening_relations", lambda relations: opening(relations)[1:]
        )
        with pytest.raises(VerificationError, match="13 relations"):
            build_quotient(config_all_p1())

    @pytest.mark.parametrize(
        "cfg", [config_all_p1(), MIXED_7], ids=["all_p1", "mixed_7"]
    )
    def test_opening_relations_match_the_pivot_rows(self, cfg):
        # the degree-1 pivot rows, which degrees 2-4 multiplied before, span
        # the same lattice, so every output of degrees 2-4 is the same
        complex_ = build_complex(cfg)
        pivot_rows = degree_one_pivot_rows(cfg)[2]
        opening = opening_relations()
        for k in (2, 3, 4):
            old = chowring._degree(pivot_rows, complex_, k)
            new = chowring._degree(opening, complex_, k)
            for field in ("rank", "torsion", "basis_cols", "products", "rref"):
                assert getattr(old, field) == getattr(new, field), (k, field)

    def test_hermite_passes_get_only_non_unit_leads(self, monkeypatch):
        # every lead of degrees 0 and 4 is 1, so no pass runs there; degrees
        # 1-3 hand the passes only their 5, 31 and 3 non-unit-lead rows, of
        # 14, 473 and 2,449 pivot rows
        monkeypatch.setattr(chowring, "_pool_workers", lambda jobs: 0)
        build, dense = chowring._degree, exactla._dense_snf
        degree = []
        calls = {}

        def tagging(generators, complex_, k):
            degree.append(k)
            return build(generators, complex_, k)

        def spy(rows):
            assert all(row[max(row)] != 1 for row in rows)
            calls.setdefault(degree[-1], []).append(len(rows))
            return dense(rows)

        monkeypatch.setattr(chowring, "_degree", tagging)
        monkeypatch.setattr(exactla, "_dense_snf", spy)
        t = build_quotient(config_all_p1())
        assert sorted(degree) == [0, 1, 2, 3, 4]
        assert calls == {1: [5], 2: [31], 3: [3]}
        assert t.torsion_free

    def test_degrees_three_and_four_insert_by_ascending_lead(self, monkeypatch):
        # degrees 0-2 put the rows the peel keeps into the echelon in
        # stream order, degrees 3 and 4 by ascending largest column
        peel, calls = chowring.peel, []

        def spy(rows, ncols, by_lead=False):
            calls.append(by_lead)
            return peel(rows, ncols, by_lead)

        monkeypatch.setattr(chowring, "peel", spy)
        complex_ = build_complex(config_all_p1())
        for k in range(MAX_DEGREE + 1):
            chowring._degree(opening_relations(), complex_, k)
        assert calls == [False, False, False, True, True]

    @pytest.mark.parametrize("name", ["table", "table_p2", "table_mixed"])
    def test_degree_three_is_the_same_in_stream_order(self, request, name):
        # the echelon of degree 3's kept rows, taken by ascending lead or in
        # stream order, has the same leads: the same torsion and basis
        # columns as the table's
        t = request.getfixturevalue(name)
        dd, lower = t.degrees[3], t.degrees[2].monomials
        ncols = len(dd.monomials)

        def peeled(by_lead):
            rows = chowring._row_stream(
                opening_relations(), lower, dd.products, dd.stride
            )
            pivots, ech = exactla.peel(rows, ncols, by_lead)
            torsion = (1,) * (len(pivots) - ech.rank)
            torsion += exactla.smith_from_echelon(ech)
            basis = tuple(c for c in range(ncols) if c not in pivots)
            return {c: row[c] for c, row in pivots.items()}, torsion, basis

        stream, by_lead = peeled(False), peeled(True)
        assert stream == by_lead
        assert stream[1:] == (dd.torsion, dd.basis_cols)
        assert sorted(set(stream[0].values())) == [1, 2]

    @pytest.mark.parametrize("name", ["table", "table_p2", "table_mixed"])
    def test_rref_matches_golden_digest(self, request, name):
        # the reduced rows, read as rationals, are pinned per degree by a
        # sha256 of their sorted (lead, col, numerator, denominator) entries,
        # the implicit lead entry (lead, lead, 1, 1) included
        with open(GOLDEN / "rref_digests.json", encoding="utf-8") as fh:
            want = json.load(fh)[name]
        t = request.getfixturevalue(name)
        for k in range(1, MAX_DEGREE + 1):
            entries = []
            for lead, (num, den) in t.degrees[k].rref.items():
                entries.append((lead, lead, 1, 1))
                for col, v in num.items():
                    f = Fraction(v, den)
                    entries.append((lead, col, f.numerator, f.denominator))
            text = "\n".join("%d %d %d %d" % e for e in sorted(entries))
            assert hashlib.sha256(text.encode()).hexdigest() == want[str(k)], k


class TestLazyRref:
    """The build reads each degree's echelon alone; the rref of a degree is
    made from its pivot rows by the first normal form or integral there."""

    def test_each_rref_is_made_on_first_use(self, table):
        t = build_quotient(config_all_p1())
        for dd in t.degrees:
            assert "rref" not in vars(dd)
            assert len(dd.pivots) == len(dd.monomials) - dd.rank
        assert t.degrees[0].pivots == {}
        e = F(1, 2) * F(1, 2) + E(1, 2, 3) * G((1, 2), (3, 4), (5, 6))
        assert normal_form(e, t) == normal_form(e, table)
        made = [k for k, dd in enumerate(t.degrees) if "rref" in vars(dd)]
        assert made == [2]
        assert [dd.pivots is None for dd in t.degrees] == [
            False, False, True, False, False
        ]
        psi56, psi65 = classes.psi(5, 6), classes.psi(6, 5)
        assert integrate(psi65, t, times=(psi56, psi56, psi65)) == 1
        made = [k for k, dd in enumerate(t.degrees) if "rref" in vars(dd)]
        assert made == [2, 4]
        assert [dd.pivots is None for dd in t.degrees] == [
            False, False, True, False, True
        ]


class TestParallelBuild:
    """Degrees 2-4 are built in forked pool workers when more than one CPU
    is usable, and in this process by the same function otherwise."""

    @staticmethod
    def _usable_cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)))

    @staticmethod
    def _assert_same_degrees(serial, pooled):
        """The fields that the workers send back, pivot rows included, are
        equal, and then so is the rref made from them, which replaces
        them."""
        assert len(serial) == len(pooled)
        for k, (a, b) in enumerate(zip(serial, pooled)):
            assert (
                a.monomials, a.index, a.rank, a.torsion, a.pivots, a.basis_cols
            ) == (
                b.monomials, b.index, b.rank, b.torsion, b.pivots, b.basis_cols
            ), k
            assert a.products == b.products, k
            assert a.rref == b.rref, k
            assert a.pivots is None is b.pivots, k

    @pytest.mark.parametrize("name", ["table", "table_mixed"])
    def test_one_cpu_build_matches_the_pool(self, request, monkeypatch, name):
        cfg = request.getfixturevalue(name).config
        self._usable_cpus(monkeypatch, 2)
        if chowring._pool_workers(3) != 2:
            pytest.skip("no fork start method: degrees 2-4 run in this process")
        pooled = build_quotient(cfg)
        self._usable_cpus(monkeypatch, 1)
        serial = build_quotient(cfg)
        self._assert_same_degrees(serial.degrees, pooled.degrees)
        assert serial.ranks == pooled.ranks
        assert serial.torsion_free == pooled.torsion_free

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_one_cpu_keel_ring_matches_the_pool(self, monkeypatch, n):
        # M-bar_{0,5} has one job and builds it here; M-bar_{0,6} has two
        # and M-bar_{0,7} three
        self._usable_cpus(monkeypatch, 2)
        pooled = M0nRing(n)
        self._usable_cpus(monkeypatch, 1)
        serial = M0nRing(n)
        self._assert_same_degrees(serial.degrees, pooled.degrees)

    def test_cpu_count_without_sched_getaffinity(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, workers in [(None, 0), (1, 0), (2, 2), (8, 3)]:
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert chowring._pool_workers(3) == workers

    def test_no_pool_without_fork_or_in_a_daemon(self, monkeypatch):
        self._usable_cpus(monkeypatch, 4)
        assert chowring._pool_workers(3) == 3
        with monkeypatch.context() as m:
            m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
            assert chowring._pool_workers(3) == 0
        with monkeypatch.context() as m:
            # daemonic processes, such as multiprocessing.Pool workers, may
            # not have children
            daemon = multiprocessing.Process(daemon=True)
            m.setattr(multiprocessing, "current_process", lambda: daemon)
            assert chowring._pool_workers(3) == 0

    def test_no_worker_outlives_the_build(self, monkeypatch, table_mixed):
        cfg = table_mixed.config
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if chowring._pool_workers(3) != 2:
            pytest.skip("no fork start method: degrees 2-4 run in this process")
        assert build_quotient(cfg).ranks == table_mixed.ranks
        assert multiprocessing.active_children() == []
        smith = chowring.smith_from_echelon

        def failing(ech):
            # degree-1 pivots lie on the 65 divisor columns, and degree 0
            # has none
            if max(ech.pivots, default=0) >= len(labels.DIVISORS):
                raise VerificationError("raised in a worker")
            return smith(ech)

        # forked workers inherit the patch
        monkeypatch.setattr(chowring, "smith_from_echelon", failing)
        with pytest.raises(VerificationError, match="raised in a worker"):
            build_quotient(cfg)
        assert multiprocessing.active_children() == []

    @staticmethod
    def _python(*args):
        """Standard output of a fresh interpreter run with args on this m36."""
        src = str(Path(chowring.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    def test_import_loads_no_process_pool(self):
        # the pool is imported by the first build, so start-up stays cheap
        assert self._python(
            "-c",
            "import sys, m36.cli, m36.chowring\n"
            "print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing')))",
        ) == "[]"

    def test_script_without_main_guard_under_spawn(self, table, tmp_path):
        # the pool forks whatever the default start method, so a script
        # that builds at top level is not re-run in the workers
        script = tmp_path / "build.py"
        out = tmp_path / "degrees.pickle"
        script.write_text(
            "import multiprocessing, os, pickle\n"
            "multiprocessing.set_start_method('spawn')\n"
            "os.sched_getaffinity = lambda _pid: {0, 1}\n"
            "from m36 import chowring, labels\n"
            "t = chowring.build_quotient(labels.config_all_p1())\n"
            "with open(%r, 'wb') as fh:\n"
            "    pickle.dump([(dd.rank, dd.torsion, dd.rref, dd.basis_cols)"
            " for dd in t.degrees], fh)\n" % str(out)
        )
        self._python(str(script))
        with open(out, "rb") as fh:
            built = pickle.load(fh)
        assert built == [
            (dd.rank, dd.torsion, dd.rref, dd.basis_cols) for dd in table.degrees
        ]


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
        g = G((1, 2), (3, 4), (5, 6))
        assert is_zero_in(F(1, 3) * g * g, table)

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
        g = G((1, 2), (3, 4), (5, 6))
        e = g * g
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

    @pytest.mark.parametrize(
        "name", ["table", "table_p2", "table_mixed", "m0n5", "m0n6", "m0n7"]
    )
    def test_matches_the_reference(self, request, name):
        if name.startswith("m0n"):
            t, ngens = _ring(name)
        else:
            t, ngens = request.getfixturevalue(name), len(labels.DIVISORS)
        degrees = t.degrees
        top = len(degrees) - 1
        rng = random.Random(3030 + len(name) + ngens)
        coeffs = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
        seen = Counter()
        for i in range(80):
            # one element in four is only a multiple of a relation
            alone = i % 4 == 0
            terms = Counter()
            for _ in range(0 if alone else rng.randint(1, 8)):
                k = rng.randint(0, top)
                if rng.random() < 0.2:
                    mono = tuple(sorted(rng.randrange(ngens) for _ in range(k)))
                else:
                    mono = rng.choice(degrees[k].monomials)
                terms[mono] += rng.choice(coeffs)
                seen["constant"] += k == 0
                seen["inadmissible"] += mono not in degrees[k].index
            if alone or rng.random() < 0.4:
                # a multiple of an rref row, den at its lead column and num
                # elsewhere, which the reduction cancels
                k = rng.choice([k for k in range(1, top + 1) if degrees[k].rref])
                dd = degrees[k]
                lead, (num, den) = rng.choice(sorted(dd.rref.items()))
                c = rng.choice(coeffs)
                terms[dd.monomials[lead]] += c * den
                for col, v in num.items():
                    terms[dd.monomials[col]] += c * v
                seen["relation"] += 1
            e = RingElement(dict(terms))
            seen["mixed"] += len({len(m) for m in e.coeffs}) > 1
            seen["fraction"] += any(type(c) is Fraction for c in e.coeffs.values())
            got = normal_form(e, t)
            assert got == reference_normal_form(e, t)
            assert normal_form(e - got, t).is_zero()
            seen["zero" if got.is_zero() else "nonzero"] += 1
        assert len(seen) == 7 and min(seen.values()) >= 3, seen
        assert normal_form(RingElement.zero(), t).is_zero()
        past = RingElement._raw({(0,) * (top + 1): 1})
        for nf in (normal_form, reference_normal_form):
            with pytest.raises(ValueError, match="exceeds degree %d" % top):
                nf(past, t)
        if ngens < len(labels.DIVISORS):
            unknown = RingElement({(ngens,): Fraction(1, 2)})
            for nf in (normal_form, reference_normal_form):
                with pytest.raises(ValueError, match="unknown generator index"):
                    nf(unknown, t)


class TestIntegrate:
    def test_requires_degree_four(self, table):
        with pytest.raises(ValueError):
            integrate(F(1, 2), table)
        with pytest.raises(ValueError):
            f = F(1, 2)
            integrate(RingElement.one() + f * f * f * f, table)
        assert integrate(RingElement.zero(), table) == 0

    def test_relation_times_cube_is_zero(self, table):
        rng = random.Random(9)
        cube = F(1, 2) * F(3, 4) * F(5, 6)
        for g in rng.sample(linear_relations(), 8):
            assert integrate(g * cube, table) == 0

    @pytest.mark.parametrize(
        "name,points",
        [("table", 1020), ("table_p2", 1035), ("table_mixed", 1024), ("mixed_7", 1027)],
    )
    def test_point_normalization_is_the_psi_normalization(
        self, request, name, points
    ):
        # every squarefree quartic is a point, and the functional normalized
        # on them is the one normalized on the published psi[5,6]^2 psi[6,5]^2
        if name == "mixed_7":
            t = chowring.table(MIXED_7)
        else:
            t = request.getfixturevalue(name)
        dd = t.degrees[4]
        squarefree = [c for c, m in enumerate(dd.monomials) if len(set(m)) == 4]
        assert len(squarefree) == points
        assert dd.functional == psi_functional(t)
        assert all(dd.functional[c] == 1 for c in squarefree)

    def test_a_point_off_one_fails_the_certificate(self, table):
        with pytest.raises(VerificationError, match="do not integrate to 1"):
            point_off_one(table.degrees[4]).functional

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
                for _ in range(n):
                    free = free * atom
                quot = product((quot, product((atom,) * n, t)), t)
            assert quot == _pruned(free, t)
            assert normal_form(quot, t) == normal_form(free, t)
            if free.degrees() == [4]:
                assert integrate(quot, t) == integrate(free, t)
            for pt in SINGULAR_POINTS:
                assert restrict_to_fiber(quot, pt, t.config) == restrict_to_fiber(
                    free, pt, t.config
                )
            degrees_seen.update(free.degrees())
        assert degrees_seen == {1, 2, 3, 4}

    def test_sums_and_mixed_degrees(self, table):
        rng = random.Random(77)
        pool = _atom_pool()
        for _ in range(20):
            a = rng.choice(pool) + rng.choice(pool) * rng.choice(pool)
            b = rng.choice(pool) * rng.choice(pool) - RingElement.one().scale(3)
            quot = product((a, b), table)
            assert quot == _pruned(a * b, table)
            assert normal_form(quot, table) == normal_form(a * b, table)

    def test_zero_in_the_quotient(self, table):
        # F12 and F13 never meet: the product is zero in the ring, though
        # not in the free ring
        assert not (F(1, 2) * F(1, 3)).is_zero()
        assert product((F(1, 2), F(1, 3)), table).is_zero()
        assert product([F(1, 2), F(3, 4), F(1, 3)], table).is_zero()

    def test_degree_cap_and_exponents(self, table):
        f = F(1, 2)
        with pytest.raises(ValueError):
            product((product((f,) * 4, table), f), table)
        assert product((), table) == RingElement.one()
        assert product((RingElement.zero(), product((f,) * 4, table)), table).is_zero()

    def test_kb4(self, table):
        kb = classes.canonical_divisor() + classes.total_boundary()
        assert integrate(product((kb,) * 4, table), table) == 1502
        assert chowring.integrate_product((kb,) * 4, table) == 1502


def reference_multiply(a, b, t):
    """The quotient product term pair by term pair: each product monomial is
    sorted and looked up, each coefficient a Fraction or int product."""
    if a.coeffs and b.coeffs:
        if max(map(len, a.coeffs)) + max(map(len, b.coeffs)) > MAX_DEGREE:
            raise ValueError("product exceeds degree 4")
    indexes = [dd.index for dd in t.degrees]
    right = [(mb, cb) for mb, cb in b.coeffs.items() if mb in indexes[len(mb)]]
    out = {}
    for ma, ca in a.coeffs.items():
        if ma not in indexes[len(ma)]:
            continue
        for mb, cb in right:
            mono = tuple(sorted(ma + mb))
            if mono in indexes[len(mono)]:
                out[mono] = out.get(mono, 0) + ca * cb
    return RingElement({m: c for m, c in out.items() if c})


def _random_element(rng, t, degrees):
    """Up to 12 terms of the given degrees: mostly admissible monomials,
    some arbitrary sorted tuples (most of them inadmissible), int and
    Fraction coefficients."""
    coeffs = {}
    for _ in range(rng.randint(1, 12)):
        k = rng.choice(degrees)
        if rng.random() < 0.75:
            mono = rng.choice(t.degrees[k].monomials)
        else:
            mono = tuple(sorted(rng.randrange(65) for _ in range(k)))
        c = rng.randint(-3, 3)
        if rng.random() < 0.3:
            c = Fraction(c, rng.randint(2, 6))
        coeffs[mono] = c
    return RingElement(coeffs)


class TestProductByColumn:
    """product of two factors, which steps columns through the product
    tables, against the sort-and-hash product it replaced."""

    @pytest.mark.parametrize(
        "cfg", [config_all_p1(), config_all_p2(), MIXED_7],
        ids=["all_p1", "all_p2", "mixed_7"],
    )
    def test_matches_reference(self, cfg):
        t = chowring.table(cfg)
        rng = random.Random(36636)
        inadmissible = 0
        for _ in range(150):
            da = rng.randint(0, MAX_DEGREE)
            db = rng.randint(0, MAX_DEGREE - da)
            # mixed degrees, the constant term included
            a = _random_element(rng, t, range(da + 1))
            b = _random_element(rng, t, range(db + 1))
            got = product((a, b), t)
            assert got == reference_multiply(a, b, t)
            assert all(got.coeffs.values())
            ints = all(type(c) is int for e in (a, b) for c in e.coeffs.values())
            if ints:
                assert all(type(c) is int for c in got.coeffs.values())
            inadmissible += sum(
                m not in t.degrees[len(m)].index for e in (a, b) for m in e.coeffs
            )
        assert inadmissible

    def test_cancellation_to_zero(self, table):
        # the cross terms of (x + y)(x - y) cancel and leave no entry, and
        # scales that cancel leave the zero element
        x, y = F(1, 2), F(3, 4)
        got = product((x + y, x - y), table)
        assert got == reference_multiply(x + y, x - y, table)
        cross = tuple(sorted(next(iter(x.coeffs)) + next(iter(y.coeffs))))
        assert cross in table.degrees[2].index and cross not in got.coeffs
        third = Fraction(1, 3)
        zero = product((x.scale(third), y), table) - product((x, y.scale(third)), table)
        assert zero.is_zero()

    def test_degree_cap(self, table):
        a = RingElement({table.degrees[3].monomials[5]: Fraction(1, 2)})
        b = RingElement({(0, 1): 1, (): 2})
        with pytest.raises(ValueError, match="product exceeds degree 4"):
            product((a, b), table)
        with pytest.raises(ValueError, match="product exceeds degree 4"):
            reference_multiply(a, b, table)
        # an inadmissible monomial still counts toward the cap
        with pytest.raises(ValueError, match="product exceeds degree 4"):
            product((RingElement({(0, 0, 0, 0): 1}), RingElement({(1,): 1})), table)

    @pytest.mark.parametrize("name", ["table", "table_p2"])
    def test_product_tables_entry_by_entry(self, request, name):
        degrees = request.getfixturevalue(name).degrees
        assert len(degrees[0].products) == 0
        for k in range(1, MAX_DEGREE + 1):
            got = degrees[k].products
            assert got.typecode == "H"
            assert degrees[k].stride == len(labels.DIVISORS) == 65
            assert got.tolist() == reference_product_table(
                degrees[k - 1].monomials, degrees[k].index, len(labels.DIVISORS)
            ), k

    def test_product_tables_fit_the_budget(self, table):
        sizes = [dd.products.itemsize * len(dd.products) for dd in table.degrees]
        assert sum(sizes) <= 450_000


def _ring(name):
    """The table of a config, or a Keel ring, by name, and its number of
    divisors."""
    if name.startswith("m0n"):
        ring = M0nRing(int(name[3:]))
    else:
        cfg = {"all_p1": config_all_p1(), "all_p2": config_all_p2()}.get(name, MIXED_7)
        ring = chowring.table(cfg)
    return ring, len(ring.gens)


def _ring_degrees(name):
    """The DegreeData of a config's table or of a Keel ring, and its number
    of divisors."""
    t, ngens = _ring(name)
    return t.degrees, ngens


def _random_factor(rng, degrees, ngens, most):
    """A {monomial: coeff} factor of at most degree most (at most 2), sorted
    monomials: the zero factor one time in 20, one with only inadmissible
    monomials one time in 10, else up to 6 terms, most of them admissible,
    with int and Fraction coefficients."""
    roll = rng.random()
    if roll < 0.05:
        return {}
    out = {}
    for _ in range(rng.randint(1, 6)):
        k = rng.randint(0, most)
        if roll < 0.15 or rng.random() < 0.2:
            mono = tuple(sorted(rng.randrange(ngens) for _ in range(k)))
            if roll < 0.15 and mono in degrees[k].index:
                continue
        else:
            mono = rng.choice(degrees[k].monomials)
        c = rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)))
        out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


RINGS = ["all_p1", "all_p2", "mixed_7", "m0n5", "m0n6", "m0n7"]


class TestChainedProduct:
    """product over a whole chain of factors: it raises where the left fold
    of free products raises, and otherwise gives that fold restricted to
    admissible monomials."""

    @pytest.mark.parametrize("name", RINGS)
    def test_matches_the_fold_of_free_products(self, name):
        ring, ngens = _ring(name)
        degrees = ring.degrees
        top = len(degrees) - 1
        rng = random.Random(2136 + len(name) + ngens)
        # pairs of divisors that never meet: their product is zero in the
        # quotient and not in the free ring
        apart = [
            (a, b)
            for a in range(ngens)
            for b in range(a + 1, ngens)
            if (a, b) not in degrees[2].index
        ]
        outcomes = {"value": 0, "zero": 0, "raised": 0}
        starts = Counter()
        for i in range(200):
            factors, budget = [], top
            for _ in range(rng.randint(2, 5)):
                # mostly within the top degree, sometimes past it
                most = min(2, budget) if rng.random() < 0.7 else 2
                factors.append(_random_factor(rng, degrees, ngens, most))
                budget = max(0, budget - most)
            # three of every four chains open with a zero factor, an
            # inadmissible one, or two factors whose product is zero in the
            # quotient
            start = ("random", "zero", "inadmissible", "apart")[i % 4]
            a, b = rng.choice(apart)
            factors[:1] = {
                "random": factors[:1],
                "zero": [{}],
                "inadmissible": [{(a, b): Fraction(-2, 3)}],
                "apart": [{(a,): 1}, {(b,): 3}],
            }[start]
            elements = [RingElement(f) for f in factors]
            # _raw lets zero and inadmissible factors reach the chain as
            # they are
            raw = [RingElement._raw(f) for f in factors]
            try:
                free = free_fold(factors, top)
            except ValueError as e:
                if ngens == len(labels.DIVISORS):
                    with pytest.raises(ValueError, match=str(e)):
                        functools.reduce(operator.mul, elements, RingElement.one())
                with pytest.raises(ValueError, match=str(e)):
                    chowring.product(raw, ring)
                outcomes["raised"] += 1
                starts[start, "raised"] += 1
                continue
            if ngens == len(labels.DIVISORS):
                one = RingElement.one()
                assert functools.reduce(operator.mul, elements, one).coeffs == free
            got = chowring.product(raw, ring).coeffs
            assert got == reference_chain(factors, degrees)
            assert all(got.values())
            if all(type(c) is int for f in factors for c in f.values()):
                assert all(type(c) is int for c in got.values())
            outcomes["value" if got else "zero"] += 1
            starts[start, "returned"] += 1
        assert min(outcomes.values()) >= 10, outcomes
        assert starts["zero", "raised"] == 0, starts
        assert len(starts) == 7 and min(starts.values()) >= 5, starts

    @pytest.mark.parametrize("name", RINGS)
    def test_masks_match_the_product_tables(self, name):
        degrees, _ngens = _ring_degrees(name)
        for dd in degrees:
            want = reference_masks(dd.products, dd.stride)
            got = [{d for d in range(dd.stride) if m >> d & 1} for m in dd.masks]
            assert got == want

    def test_masks_are_built_by_the_first_product(self):
        ring = M0nRing(6)
        assert not any("masks" in vars(dd) for dd in ring.degrees)
        product((RingElement({(0,): 1}), RingElement({(1,): 1})), ring)
        assert "masks" in vars(ring.degrees[2])

    def test_errors_match_the_pairwise_products(self, table):
        # product counts the monomials of every factor as given,
        # like the free ring: a factor that is zero in the quotient, or
        # inadmissible, refuses as much as it does there
        top3 = table.degrees[3].monomials[7]
        # F12 and F13 never meet
        f12_f13 = F(1, 2) * F(1, 3)
        (bad3,) = (f12_f13 * F(1, 3)).coeffs
        assert bad3 not in table.degrees[3].index
        f = F(1, 2)
        cases = {
            "admissible": (
                RingElement({top3: 1}),
                f.scale(Fraction(1, 2)) + F(3, 4) * F(5, 6),
            ),
            "inadmissible": (RingElement({bad3: 1}), F(3, 4) * F(5, 6)),
            "inadmissible-and-linear": (
                RingElement({bad3: 2, (1,): 1}),
                F(3, 4) * F(5, 6),
            ),
            "zero-in-the-quotient": (f12_f13, F(3, 4) * F(5, 6) * F(1, 2)),
            "zero": (RingElement.zero(), product((f,) * 4, table)),
        }
        for name, (a, b) in cases.items():
            want = _outcome(reference_multiply, a, b, table)
            assert _outcome(product, (a, b), table) == want, name
            assert _outcome(_reference_product, (a, b), table) == want, name
        exceeds = ("raised", "product exceeds degree 4")
        assert _outcome(product, cases["inadmissible"], table) == exceeds
        assert _outcome(product, cases["zero-in-the-quotient"], table) == exceeds
        assert _outcome(product, (f12_f13,) * 3, table) == exceeds
        assert _outcome(product, (f12_f13,) * 2, table) == ("value", RingElement.zero())
        rng = random.Random(5)
        for _ in range(60):
            e = RingElement(_random_factor(rng, table.degrees, 65, 2))
            n = rng.randint(0, 5)
            want = _outcome(_reference_product, (e,) * n, table)
            assert _outcome(product, (e,) * n, table) == want

    def test_m0n_errors_match_the_pairwise_products(self):
        ring = M0nRing(5)
        rng = random.Random(55)
        raised = 0
        for _ in range(200):
            a = _random_factor(rng, ring.degrees, len(ring.gens), 2)
            b = _random_factor(rng, ring.degrees, len(ring.gens), 2)
            if a and b and max(map(len, a)) + max(map(len, b)) > 2:
                with pytest.raises(ValueError, match="product exceeds degree 2"):
                    product((RingElement(a), RingElement(b)), ring)
                raised += 1
            else:
                got = product((RingElement(a), RingElement(b)), ring).coeffs
                assert got == reference_chain((a, b), ring.degrees)
        assert raised >= 20


def _graded_factor(rng, degrees, ngens, k):
    """A {monomial: coeff} factor whose longest monomials have degree k: up
    to five of them, one in four drawn at random, so most often
    inadmissible, and on a Keel ring sometimes naming a divisor past its
    last one; int and Fraction coefficients; and one time in three
    lower-degree terms as well, a constant among them."""
    out = {}
    names = min(ngens + 1, len(labels.DIVISORS))
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.25:
            mono = tuple(sorted(rng.randrange(names) for _ in range(k)))
        else:
            mono = rng.choice(degrees[k].monomials)
        out[mono] = rng.choice((1, -2, 3, Fraction(1, 2), Fraction(-5, 3)))
    if k and rng.random() < 1 / 3:
        out[()] = rng.choice((1, -1, Fraction(2, 3)))
        low = rng.randrange(k)
        out[rng.choice(degrees[low].monomials)] = rng.choice((2, Fraction(-1, 4)))
    if not any(len(m) == k for m in out):
        # every longest monomial was an inadmissible draw that collided
        out[rng.choice(degrees[k].monomials)] = 1
    return out


class TestIntegrateProduct:
    """integrate_product(fs, t) is integrate(product(fs, t), t): the same
    value, or the same ValueError, on every ring the engine builds."""

    @staticmethod
    def _chain(rng, t, ngens):
        """1-5 factors whose degrees sum to the top degree mostly, and one
        more factor or one degree less sometimes; the longest factor goes
        last one time in two, so the last factor often has monomials of
        degree 2 or 3."""
        top = len(t.degrees) - 1
        n = rng.randint(1, 5)
        cuts = sorted(rng.randint(0, top) for _ in range(n - 1))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, top])]
        roll = rng.random()
        if roll < 0.1:
            sizes.insert(rng.randint(0, n), 1)
        elif roll < 0.2 and max(sizes) > 1:
            sizes[sizes.index(max(sizes))] -= 1
        if rng.random() < 0.5:
            sizes.sort()
        factors = [_graded_factor(rng, t.degrees, ngens, k) for k in sizes]
        if rng.random() < 0.05:
            factors[rng.randrange(len(factors))] = {}
        return factors

    @pytest.mark.parametrize("name", RINGS)
    def test_matches_integrate_of_the_product(self, name):
        t, ngens = _ring(name)
        top = len(t.degrees) - 1
        index, func = t.degrees[top].index, t.degrees[top].functional
        rng = random.Random(36636)
        seen, draws = Counter(), Counter()
        for _ in range(250):
            factors = self._chain(rng, t, ngens)
            elements = [RingElement(f) for f in factors]
            want = _outcome(lambda: integrate(product(elements, t), t))
            got = _outcome(lambda: chowring.integrate_product(elements, t))
            assert got == want, factors
            # the reference never runs _times; it cannot see the degree cap
            # or an unknown generator
            if got[0] == "value" or got[1].startswith("integrand"):
                ref = reference_chain(factors, t.degrees)
                lower = any(len(m) < top for m in ref)
                assert (got[0] == "raised") == lower, factors
                if not lower:
                    assert got[1] == sum(c * func[index[m]] for m, c in ref.items())
                for i, f in enumerate(factors[1:], 1):
                    if () in f and any(
                        len(m) == top for m in reference_chain(factors[:i], t.degrees)
                    ):
                        draws["constant at the top"] += 1
                        break
                draws["constant first"] += set(factors[0]) == {()}
                draws["longer last"] += any(len(m) in (2, 3) for m in factors[-1])
            if got[0] == "value":
                assert type(got[1]) is Fraction
                seen["zero" if got[1] == 0 else "value"] += 1
            else:
                seen[got[1].split()[0]] += 1
        # values, zeros, the homogeneity message, the degree cap and, on
        # Keel rings, unknown generators
        want = {"value", "zero", "integrand", "product"}
        if ngens < len(labels.DIVISORS):
            want.add("unknown")
        assert set(seen) == want, seen
        assert min(seen.values()) >= 5, seen
        assert len(draws) == 3 and min(draws.values()) >= 5, draws

    def test_errors_match(self):
        r5 = M0nRing(5)
        d = RingElement({(0,): 1, (1,): 1})
        unknown = RingElement({(10,): 1})  # r5 has 10 divisors
        cases = [
            ((d, d, d), "raised", "product exceeds degree 2"),
            ((d, unknown), "raised", "unknown generator index in (10,)"),
            ((d,), "raised", "integrand must be homogeneous of degree 2"),
            ((), "raised", "integrand must be homogeneous of degree 2"),
            ((d + RingElement.one(), d), "raised", "integrand must be"),
            # a zero factor ends the chain before the unknown generator
            ((d, RingElement.zero(), unknown), "value", Fraction(0)),
        ]
        for factors, kind, what in cases:
            want = _outcome(lambda: integrate(product(factors, r5), r5))
            got = _outcome(lambda: chowring.integrate_product(factors, r5))
            assert got == want
            assert got[0] == kind
            assert got[1] == what if kind == "value" else got[1].startswith(what)

    def test_lower_degrees_that_vanish_or_cancel(self, table):
        # F12 and F13 never meet, so the degree-2 part F12*F13 of this
        # product is zero, and only its quartic integrates
        cubic = F(2, 4) * F(5, 6) * F(1, 3)
        factors = (F(1, 2) + cubic.scale(Fraction(1, 2)), F(1, 3))
        want = Fraction(-1, 2)
        assert integrate(cubic * F(1, 3), table) / 2 == want
        assert integrate(product(factors, table), table) == want
        assert chowring.integrate_product(factors, table) == want
        # (1 + F12)(1 - F12) cancels its degree-1 terms, but its constant
        # is left, so the integrand is not homogeneous
        factors = (RingElement.one() + F(1, 2), RingElement.one() - F(1, 2))
        for fn in (lambda: integrate(product(factors, table), table),
                   lambda: chowring.integrate_product(factors, table)):
            with pytest.raises(ValueError, match="homogeneous of degree 4"):
                fn()
        # the cross terms of (a + b)(a - b) cancel and leave zeros in the
        # running product, which add nothing
        a, b = F(1, 2), F(3, 4)
        factors = (a + b, a - b, F(5, 6), F(1, 3))
        assert chowring.integrate_product(factors, table) == integrate(
            product(factors, table), table
        )


def _reference_product(factors, t):
    """The left fold of reference_multiply from one; it raises where the
    left fold of free products does."""
    functools.reduce(operator.mul, factors, RingElement.one())
    out = RingElement.one()
    for f in factors:
        out = reference_multiply(out, f, t)
    return out


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as e:
        return "raised", str(e)


class TestPsiCache:
    def test_cached_psi_is_unchanged_by_queries(self, capsys):
        from m36 import cli

        rng = random.Random(19)
        for _ in range(30):
            (i, j), (k, l) = rng.sample(classes.PSI_PAIRS, 2)
            text = "psi[%d,%d]^2*psi[%d,%d]*(psi[%d,%d]-1/2*phi[%d,%d])" % (
                i, j, k, l, j, i, i, j
            )
            assert cli.main(["integrate", text]) == 0
        for pt in SINGULAR_POINTS[:12]:
            point = ",".join("%d%d" % p for p in pt.matching)
            for text in ("psi[1,2]*psi[3,4]+K+B", "K+B"):
                assert cli.main(["restrict", text, "--point", point]) == 0
        capsys.readouterr()
        assert len(classes.PSI_PAIRS) == 30
        for i, j in classes.PSI_PAIRS:
            assert classes.psi(i, j) == classes.psi.__wrapped__(i, j)
        # K and B are cached too, and the queries leave them as built
        for atom in (classes.canonical_divisor, classes.total_boundary):
            assert atom() is atom()
            assert atom() == atom.__wrapped__()


class TestFiberRestriction:
    PT = singular_point(((1, 2), (3, 4), (5, 6)))

    def test_line_fiber_generator_images(self, table):
        pt = self.PT
        assert restrict_to_fiber(F(1, 2), pt, table.config).coeffs == (0, -1)
        assert restrict_to_fiber(F(1, 3), pt, table.config).coeffs == (0, 0)
        assert restrict_to_fiber(E(1, 2, 3), pt, table.config).coeffs == (0, 0)
        assert restrict_to_fiber(
            G((1, 2), (3, 4), (5, 6)), pt, table.config
        ).coeffs == (0, 1)
        assert restrict_to_fiber(
            G((1, 2), (5, 6), (3, 4)), pt, table.config
        ).coeffs == (0, 1)
        assert restrict_to_fiber(
            G((1, 3), (2, 4), (5, 6)), pt, table.config
        ).coeffs == (0, 0)

    def test_line_forms_read_off_the_matching(self):
        forms = line_forms()
        assert list(forms) == list(SINGULAR_POINTS)
        for pt in SINGULAR_POINTS:
            assert forms[pt] == tuple(
                fiber_generator_image(d, pt, labels.FIBER_P1)
                for d in labels.DIVISORS
            )

    def test_line_form_certificate_fires(self, monkeypatch):
        # F[12] alone as a relation: the form of P[12,34,56] is -1 on it
        vectors = chowring._linear_relation_vectors()
        bad = {labels.divisor_index(pair((1, 2))): 1}
        monkeypatch.setattr(
            chowring, "_linear_relation_vectors", lambda: vectors + [bad]
        )
        line_forms.cache_clear()
        try:
            with pytest.raises(VerificationError, match="line form"):
                line_forms()
        finally:
            line_forms.cache_clear()
        monkeypatch.undo()
        assert len(line_forms()) == 15

    def test_plane_fiber_generator_images(self, table_p2):
        pt = self.PT
        assert restrict_to_fiber(F(1, 2), pt, table_p2.config).coeffs == (0, 1, 0)
        assert restrict_to_fiber(
            G((1, 2), (3, 4), (5, 6)), pt, table_p2.config
        ).coeffs == (0, -1, 0)
        assert restrict_to_fiber(E(1, 2, 3), pt, table_p2.config).coeffs == (0, 0, 0)

    def test_truncation(self, table, table_p2):
        f = F(1, 2)
        assert restrict_to_fiber(f * f, self.PT, table.config).coeffs == (0, 0)
        sq = restrict_to_fiber(f * f, self.PT, table_p2.config)
        assert sq.coeffs == (0, 0, 1)
        cube = F(1, 2) * F(3, 4) * F(5, 6)
        assert restrict_to_fiber(cube, self.PT, table_p2.config).coeffs == (0, 0, 0)

    def test_multiplicative_on_samples(self, table, table_p2):
        rng = random.Random(13)
        for t in (table, table_p2):
            for _ in range(40):
                a = RingElement.from_divisor(rng.choice(labels.DIVISORS))
                b = RingElement.from_divisor(rng.choice(labels.DIVISORS))
                pt = rng.choice(SINGULAR_POINTS)
                ra = restrict_to_fiber(a, pt, t.config)
                rb = restrict_to_fiber(b, pt, t.config)
                assert restrict_to_fiber(a * b, pt, t.config) == ra * rb

    def test_relations_restrict_to_zero(self, table, table_p2):
        for t in (table, table_p2):
            for g in linear_relations():
                for pt in SINGULAR_POINTS:
                    assert not any(restrict_to_fiber(g, pt, t.config).coeffs)

    def test_fiber_value_mismatch(self, table):
        a = restrict_to_fiber(F(1, 2), SINGULAR_POINTS[0], table.config)
        b = restrict_to_fiber(F(1, 2), SINGULAR_POINTS[1], table.config)
        with pytest.raises(ValueError):
            a * b

    def test_unknown_point(self, table):
        with pytest.raises(ValueError):
            restrict_to_fiber(F(1, 2), pair((1, 2)), table.config)

    def test_str(self, table, table_p2):
        assert str(restrict_to_fiber(F(1, 2), self.PT, table.config)) == "-p"
        sq = restrict_to_fiber(F(1, 2) * F(1, 2), self.PT, table_p2.config)
        assert str(sq) == "h^2"
        assert str(restrict_to_fiber(E(1, 2, 3), self.PT, table.config)) == "0"


class TestSingularSpace:
    def test_bare_divisors_do_not_descend(self):
        pt = singular_point(((1, 2), (3, 4), (5, 6)))
        assert line_degrees(F(1, 2))[pt] == -1
        assert line_degrees(G((1, 2), (3, 4), (5, 6)))[pt] == 1

    def test_triples_descend(self):
        assert not any(line_degrees(E(1, 2, 3)).values())

    def test_deltas_descend(self):
        for label in classes.PICARD_LABELS:
            assert not any(line_degrees(classes.delta(label)).values()), label

    def test_higher_degrees_automatic(self):
        assert not any(line_degrees(F(1, 2) * F(1, 2)).values())

    def test_chow_ranks(self, table):
        deltas, ranks = classes.picard_m36(table)
        assert ranks == (1, 36, 127, 51, 1)
        assert len(deltas) == 36

    def test_chow_ranks_needs_all_line_table(self, table_p2):
        with pytest.raises(ValueError):
            classes.picard_m36(table_p2)

    def test_a_class_that_does_not_descend_fails(self, table, monkeypatch):
        monkeypatch.setattr(classes, "delta", lambda label: F(1, 2))
        with pytest.raises(VerificationError, match="descent"):
            classes.picard_m36(table)


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
