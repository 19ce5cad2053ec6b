"""Distinguished classes: restriction/forgetful pullbacks, psi and phi
classes, the delta classes spanning the Picard group of the singular space,
canonical and total-boundary divisors, and the published table of quartic
psi numbers.

Everything here is config-independent as an element of the polynomial ring on
the 65 boundary divisors; only evaluation (normal forms, integrals) needs a
quotient table, and the products evaluated here (psi quartics, (K+B)^4, the
boundary curves) are taken in that table's ring with chowring.product.
"""

from __future__ import annotations

import csv
import functools
import itertools
from collections import Counter
from fractions import Fraction
from importlib import resources

from . import labels
from .chowring import (
    RingElement,
    VerificationError,
    clear_denominators,
    integrate_product,
    line_degrees,
    line_forms,
    normal_form,
    product,
)
from .exactla import rank_over_rationals

LINESET = set(labels.LINES)


def _check_pair(ij):
    i, j = ij
    if i == j or not {i, j} <= LINESET:
        raise ValueError("not a pair of distinct lines: %r" % (ij,))
    return (min(i, j), max(i, j))


def pullback_f(k, ij):
    """Pullback of the four-point boundary divisor D_ij along the map that
    forgets the line k (restriction to the line i of the pencil basepoint
    configuration).  k must not lie in ij."""
    i, j = _check_pair(ij)
    if k not in LINESET or k in (i, j):
        raise ValueError("forgotten line %r must avoid the pair %r" % (k, ij))
    l, m, n = sorted(LINESET - {i, j, k})
    out = RingElement.from_divisors([
        labels.triple((i, j, k)),
        labels.pair((i, j)),
        labels.cyclic((i, j), (k, l), (m, n)),
        labels.cyclic((i, j), (k, m), (l, n)),
        labels.cyclic((i, j), (k, n), (l, m)),
    ])
    return out


def pullback_r(k, ij):
    """Pullback of D_ij along the restriction to the line k (the five
    remaining lines cut four points plus the polar point on k)."""
    i, j = _check_pair(ij)
    if k not in LINESET or k in (i, j):
        raise ValueError("restriction line %r must avoid the pair %r" % (k, ij))
    l, m, n = sorted(LINESET - {i, j, k})
    out = RingElement.from_divisors([
        labels.triple((l, m, n)),
        labels.pair((i, j)),
        labels.cyclic((k, l), (i, j), (m, n)),
        labels.cyclic((k, m), (i, j), (l, n)),
        labels.cyclic((k, n), (i, j), (l, m)),
    ])
    return out


# --------------------------------------------------------------------------
# psi and phi


@functools.cache
def psi(i, j, n=None, k=None):
    """The cotangent class of the marked point cut by line j on line i.

    Any admissible (n, k) gives the same class modulo relations; the default
    takes n largest outside {i, j} and k smallest among the rest, which is
    the representative used everywhere else in this package.  Each class is
    built once per process: no RingElement is changed after it is made, so
    every caller can share it."""
    if i == j or not {i, j} <= LINESET:
        raise ValueError("psi needs two distinct lines, got %r, %r" % (i, j))
    rest = sorted(LINESET - {i, j})
    if n is None:
        n = rest[-1]
    if n not in rest:
        raise ValueError("auxiliary line %r must avoid %r and %r" % (n, i, j))
    remaining = [x for x in rest if x != n]
    if k is None:
        k = remaining[0]
    if k not in remaining:
        raise ValueError("splitting line %r must avoid %r, %r, %r" % (k, i, j, n))
    l, m = [x for x in remaining if x != k]
    return (
        pullback_f(n, (j, k))
        + pullback_f(n, (l, m))
        + pullback_r(i, (j, n))
    )


def psi_choices(i, j):
    """All twelve representatives of psi(i, j); they agree in every quotient."""
    rest = sorted(LINESET - {i, j})
    for n in rest:
        for k in [x for x in rest if x != n]:
            yield psi(i, j, n=n, k=k)


def phi(i, j):
    """The symmetrized class psi(i, j) + psi(j, i)."""
    return psi(i, j) + psi(j, i)


# --------------------------------------------------------------------------
# delta classes


def delta_triple(ijk):
    """delta for a triple split: equal to the corresponding boundary divisor."""
    t = tuple(sorted(ijk))
    return RingElement.from_divisor(labels.triple(t))


def delta_pair(ij):
    """delta for the pair ij: the pair divisor plus the three cyclic
    divisors whose middle pair is ij, labeled by the smallest complement
    line."""
    i, j = _check_pair(ij)
    k, l, m, n = sorted(LINESET - {i, j})
    return RingElement.from_divisors([
        labels.pair((i, j)),
        labels.cyclic((k, l), (i, j), (m, n)),
        labels.cyclic((k, m), (i, j), (l, n)),
        labels.cyclic((k, n), (i, j), (l, m)),
    ])


def delta_cyclic(pairs):
    """delta for a cyclic split (ij, kl, mn): the difference of the two
    orientations of the matching.  The label must put the smallest line of
    the complement of ij in the second pair; the three valid labels of one
    matching give the same class up to sign."""
    if len(pairs) != 3:
        raise ValueError("cyclic delta needs three pairs, got %r" % (pairs,))
    ps = [tuple(sorted(p)) for p in pairs]
    flat = [x for p in ps for x in p]
    if sorted(flat) != list(labels.LINES):
        raise ValueError("pairs %r do not partition the six lines" % (pairs,))
    smallest_rest = min(x for x in flat if x not in ps[0])
    if smallest_rest not in ps[1]:
        raise ValueError(
            "cyclic delta label must continue with the pair containing %d"
            % smallest_rest
        )
    fwd = labels.cyclic(ps[0], ps[1], ps[2])
    return RingElement.from_divisor(fwd) - RingElement.from_divisor(
        labels.cyclic_partner(fwd)
    )


def _complement(s):
    return tuple(sorted(LINESET - set(s)))


def delta(label):
    """The delta class of a label given as digit groups, as written in
    delta[...]: (ijk,) or (ijk, lmn) for a triple split, (ij, k, lmn) with k
    the smallest line outside ij for a pair, (ij, kl, mn) for a cyclic
    split."""
    groups = [tuple(g) for g in label]
    shape = tuple(len(g) for g in groups)
    if shape in ((3,), (3, 3)):
        if shape == (3, 3) and tuple(sorted(groups[1])) != _complement(groups[0]):
            raise ValueError("delta triple label must list the complement")
        return delta_triple(groups[0])
    if shape == (2, 1, 3):
        comp = _complement(groups[0])
        if groups[1][0] != comp[0] or groups[2] != comp[1:]:
            raise ValueError(
                "delta pair label must be delta[ij,k,lmn] with k the "
                "smallest complement line"
            )
        return delta_pair(groups[0])
    if shape == (2, 2, 2):
        return delta_cyclic(groups)
    raise ValueError("unrecognized delta label shape %r" % (shape,))


def delta_name(label):
    """The delta[...] text of a label, which the CLI reads back."""
    return "delta[%s]" % ",".join("".join(map(str, g)) for g in label)


PICARD_TRIPLES = ((1, 5, 6), (2, 5, 6), (3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6))


def _cyclic_label_of_matching(matching):
    """The convention-respecting (ij, kl, mn) ordering of a matching."""
    ps = sorted(tuple(sorted(p)) for p in matching)
    first = next(p for p in ps if 1 in p)
    rest = [p for p in ps if p != first]
    smallest = min(x for p in rest for x in p)
    second = next(p for p in rest if smallest in p)
    third = next(p for p in rest if p != second)
    return (first, second, third)


# The labels of the 36 Picard classes, in the order of picard_m36 and of
# `m36 picard`: six triple deltas, fifteen pair deltas, fifteen cyclic.
PICARD_LABELS = (
    tuple((tr, _complement(tr)) for tr in PICARD_TRIPLES)
    + tuple(
        (ij, _complement(ij)[:1], _complement(ij)[1:])
        for ij in itertools.combinations(labels.LINES, 2)
    )
    + tuple(_cyclic_label_of_matching(pt.matching) for pt in labels.SINGULAR_POINTS)
)


def picard_m36(t):
    """(deltas, ranks): the 36 delta classes of PICARD_LABELS and the Chow
    ranks of the singular space, on the all-line-fiber table t.  Its degree 1
    is the common kernel of the fifteen chowring.line_forms: every delta is
    checked to lie in it, and on the degree-1 basis the forms to have rank
    15 and the deltas rank 36, so the deltas span it."""
    if t.config != labels.config_all_p1():
        raise ValueError("requires the all-line-fiber table")
    deltas = [delta(label) for label in PICARD_LABELS]
    for e in deltas:
        if any(line_degrees(e).values()):
            raise VerificationError("a delta class failed the descent test: %r" % (e,))
    basis = t.basis_monomials(1)
    pos = {mono: i for i, mono in enumerate(basis)}
    forms = [
        {j: form[mono[0]] for j, mono in enumerate(basis) if form[mono[0]]}
        for form in line_forms().values()
    ]
    rows = []
    for e in deltas:
        # clearing each row's denominators keeps its rank over Q and gives
        # rank_over_rationals the integer rows it takes
        _, row = clear_denominators(normal_form(e, t).coeffs)
        rows.append({pos[m]: c for m, c in row.items()})
    for what, vectors, want in (
        ("line-restriction functionals", forms, 15),
        ("delta classes", rows, 36),
    ):
        r = rank_over_rationals(vectors)
        if r != want:
            raise VerificationError("%s have rank %d, expected %d" % (what, r, want))
    ranks = t.ranks
    return deltas, (ranks[0], ranks[1] - 15) + ranks[2:]


# --------------------------------------------------------------------------
# canonical classes


K_COEFFS = {
    labels.TRIPLE: Fraction(-3, 10),
    labels.PAIR: Fraction(-1, 5),
    labels.CYCLIC: Fraction(1, 5),
}

KB_COEFFS = {
    labels.TRIPLE: Fraction(7, 10),
    labels.PAIR: Fraction(4, 5),
    labels.CYCLIC: Fraction(6, 5),
}


@functools.cache
def canonical_divisor():
    """K, built once per process like psi."""
    return RingElement(
        {(labels.divisor_index(d),): K_COEFFS[d.kind] for d in labels.DIVISORS}
    )


@functools.cache
def total_boundary():
    """B, the sum of the 65 boundary divisors, built once per process."""
    return RingElement({(labels.divisor_index(d),): 1 for d in labels.DIVISORS})


def _crepant_correction(duplicated_cyclics):
    """The correction divisor in the pullback identity for K: triples inside
    {1,2,3,4}, each pair of {1,2,3,4} with its complementary pair both as a
    pair divisor and as a cyclic with (5,6), the pair divisor of (5,6), and
    the cyclic divisors (either all thirty once, or additionally repeating
    the six whose matching contains (5,6))."""
    quad = (1, 2, 3, 4)
    return RingElement.from_divisors(
        [labels.triple(tr) for tr in itertools.combinations(quad, 3)]
        + [labels.pair(ij) for ij in itertools.combinations(quad, 2)]
        + [
            labels.cyclic(ij, tuple(sorted(set(quad) - set(ij))), (5, 6))
            for ij in itertools.combinations(quad, 2)
        ]
        + [labels.pair((5, 6))]
        + [
            d
            for d in labels.DIVISORS
            if d.kind == labels.CYCLIC
            and (duplicated_cyclics or (5, 6) not in d.data)
        ]
    )


def _pullback_identity_residues(t):
    """Normal forms of K minus each reading of the pullback identity
    -(1/2)(r6* + r5*)(total four-point boundary) + correction."""
    k_class = canonical_divisor()
    half = Fraction(1, 2)
    pulled = RingElement.zero()
    for a, b in itertools.combinations((1, 2, 3, 4, 5), 2):
        pulled = pulled + pullback_r(6, (a, b))
    for a, b in itertools.combinations((1, 2, 3, 4, 6), 2):
        pulled = pulled + pullback_r(5, (a, b))
    residues = {}
    for reading, dup in (("cyclics-once", False), ("cyclics-repeated", True)):
        candidate = pulled.scale(-half) + _crepant_correction(dup)
        residues[reading] = normal_form(k_class - candidate, t)
    return residues


def canonical_classes(t):
    """K, the total boundary B, and K+B, with the three verifications that
    pin them down: the pullback identity for K holds (in at least one of the
    two readings of the correction term), K+B has degree 0 on every
    exceptional line (chowring.line_degrees), and (K+B)^4 is positive."""
    k_class = canonical_divisor()
    b_class = total_boundary()
    kb = k_class + b_class
    residues = _pullback_identity_residues(t)
    passing = sorted(r for r, res in residues.items() if res.is_zero())
    if not passing:
        raise VerificationError(
            "the pullback identity for K fails in both readings: %r"
            % {r: repr(res) for r, res in residues.items()}
        )
    bad_lines = [pt.name() for pt, v in line_degrees(kb).items() if v]
    if bad_lines:
        raise VerificationError(
            "K+B does not vanish on exceptional lines %r" % (bad_lines,)
        )
    kb4 = integrate_product((kb,) * 4, t)
    if kb4 <= 0:
        raise VerificationError("(K+B)^4 = %s is not positive" % (kb4,))
    return {
        "K": k_class,
        "B": b_class,
        "K_plus_B": kb,
        "identity_readings": passing,
        "kb4": kb4,
    }


# --------------------------------------------------------------------------
# micro curves


def curve_checks(t):
    """Intersection tables of the three boundary curves that pin down the
    signs in the pullback formulas.  Returns measured and expected values."""
    f12 = RingElement.from_divisor(labels.pair((1, 2)))
    f34 = RingElement.from_divisor(labels.pair((3, 4)))
    f56 = RingElement.from_divisor(labels.pair((5, 6)))
    e123 = RingElement.from_divisor(labels.triple((1, 2, 3)))
    e345 = RingElement.from_divisor(labels.triple((3, 4, 5)))
    e246 = RingElement.from_divisor(labels.triple((2, 4, 6)))
    g_12_34_56 = RingElement.from_divisor(labels.cyclic((1, 2), (3, 4), (5, 6)))
    g_12_35_46 = RingElement.from_divisor(labels.cyclic((1, 2), (3, 5), (4, 6)))
    r6_12 = pullback_r(6, (1, 2))

    curves = {
        "pair-chain": product((f12, f34, f56), t),
        "triple-chain": product((e123, e345, e246), t),
        "pair-cyclic": product((f12, f56, g_12_34_56), t),
    }
    probes = {
        "pair-chain": (
            ("F[12]", f12, -1),
            ("G[12,34,56]", g_12_34_56, 1),
            ("r6*F[12]", r6_12, 0),
        ),
        "triple-chain": (
            ("E[345]", e345, -1),
            ("G[12,35,46]", g_12_35_46, 1),
            ("r6*F[12]", r6_12, 0),
        ),
        "pair-cyclic": (
            ("F[12]", f12, 0),
            ("G[12,34,56]", g_12_34_56, -1),
            ("r6*F[12]", r6_12, -1),
        ),
    }
    report = {}
    for name, curve in curves.items():
        rows = []
        for label, probe, expected in probes[name]:
            got = integrate_product((curve, probe), t)
            rows.append({
                "against": label,
                "value": got,
                "expected": expected,
                "ok": got == expected,
            })
        report[name] = rows
    report["all_ok"] = all(r["ok"] for rows in (report[n] for n in curves) for r in rows)
    return report


# --------------------------------------------------------------------------
# quartic psi numbers


PSI_PAIRS = tuple(
    (i, j) for i in labels.LINES for j in labels.LINES if i != j
)


@functools.cache
def _psi_orbit_map():
    """{multiset: representative} over the degree-4 multisets of psi pairs,
    sorted tuples, from one walk in lexicographic order, whose first member
    of an orbit is its lex-smallest and represents it."""
    perms = labels.all_permutations()
    out = {}
    for ms in itertools.combinations_with_replacement(PSI_PAIRS, 4):
        if ms not in out:
            for sigma in perms:
                out[tuple(sorted((sigma[i - 1], sigma[j - 1]) for i, j in ms))] = ms
    return out


def psi_orbits():
    """(representative, size) of each relabeling orbit on degree-4
    multisets of the thirty psi classes, in lexicographic order of the
    representatives."""
    return list(Counter(_psi_orbit_map().values()).items())


def _format_orbit(key):
    return ".".join("%d%d" % p for p in key)


def _parse_orbit(text):
    return tuple(sorted((int(p[0]), int(p[1])) for p in text.split(".")))


def load_published_psi_table():
    """The published nonzero quartic psi numbers, keyed by the lex-smallest
    representative of each relabeling orbit."""
    data = resources.files("m36").joinpath("data/psi_table_published.csv")
    orbit_of = _psi_orbit_map()
    out = {}
    with data.open("r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = orbit_of[_parse_orbit(row["orbit_representative"])]
            if key in out:
                raise ValueError(
                    "published rows %r collide in one orbit"
                    % (row["orbit_representative"],)
                )
            out[key] = int(row["value"])
    return out


def _too_many_repeats(key):
    firsts = Counter(i for i, _ in key)
    return max(firsts.values()) >= 3


def psi_table(t):
    """Every quartic psi number, one integration per relabeling orbit.

    Returns the computed orbit table along with the comparison against the
    published nonzero values and the check of the vanishing rule (a product
    vanishes exactly when three of the four first indices agree).
    Discrepancies are reported, never patched."""
    psis = {p: psi(*p) for p in PSI_PAIRS}
    published = load_published_psi_table()
    rows = []
    mismatches = []
    rule_violations = []
    for key, orbit_size in psi_orbits():
        value = integrate_product([psis[p] for p in key], t)
        if value.denominator != 1:
            raise VerificationError(
                "psi number %s is not an integer: %s" % (_format_orbit(key), value)
            )
        value = int(value)
        rows.append({
            "orbit_representative": _format_orbit(key),
            "orbit_size": orbit_size,
            "value": value,
        })
        expected_zero = _too_many_repeats(key)
        if (value == 0) != expected_zero:
            rule_violations.append(_format_orbit(key))
        pub = published.get(key)
        if pub is None:
            if value != 0:
                mismatches.append({
                    "orbit": _format_orbit(key),
                    "computed": value,
                    "published": None,
                })
        elif pub != value:
            mismatches.append({
                "orbit": _format_orbit(key),
                "computed": value,
                "published": pub,
            })
    return {
        "rows": rows,
        "published_mismatches": mismatches,
        "vanishing_rule_violations": rule_violations,
        "orbit_count": len(rows),
        "monomial_count": sum(r["orbit_size"] for r in rows),
    }
