"""The acceptance suite: every headline claim as a pass/fail criterion.

Each criterion is a function returning a CriterionResult; run_acceptance
drives them in order and collects a summary.  The same functions back the
command-line `verify` command and the acceptance test module, so a claim is
either green in both or red in both.  Tables come from chowring.table, the
one per-process cache, so each config is built at most once whoever asks.

Randomized choices (mixed configs, sampled monomials) use a fixed seed so
that reports are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from . import boundarycomplex, chowring, classes, labels, m0nring

SEED = 36636


@dataclass
class CriterionResult:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)
    runtime_ms: int = 0

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        keys = ", ".join(
            "%s=%s" % (k, v) for k, v in sorted(self.details.items())
        )
        return "%s %-18s %s" % (status, self.name, keys)


def load_baselines():
    data = resources.files("m36").joinpath("data/baselines.json")
    with data.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, int((time.monotonic() - t0) * 1000)


# -- 1 ----------------------------------------------------------------------


def crit_ranks_m1():
    """Ranks and torsion of the all-line-fiber resolution within the runtime
    budget of each mode (exact 10 minutes, two-prime 1).  Both modes name
    the same computation, so the table is read once and reported twice."""
    modes = (("exact", 600), ("two-prime", 60))
    try:
        table = chowring.table(labels.config_all_p1())
    except chowring.VerificationError as e:
        return CriterionResult(
            "ranks-m1", False, {"%s_error" % mode: str(e) for mode, _ in modes}
        )
    ok = table.ranks == (1, 51, 127, 51, 1) and table.torsion_free
    details = {}
    for mode, budget_s in modes:
        details["%s_ranks" % mode] = "x".join(str(r) for r in table.ranks)
        details["%s_ms" % mode] = table.runtime_ms
        ok = ok and table.runtime_ms <= budget_s * 1000
    return CriterionResult("ranks-m1", ok, details)


# -- 2 ----------------------------------------------------------------------


def crit_config_family():
    """All-plane-fiber plus three seeded mixed configs: degree 2 gains one
    rank per plane fiber, the other degrees stay put."""
    rng = random.Random(SEED)
    configs = [labels.config_all_p2()]
    for _ in range(3):
        pts = rng.sample(labels.SINGULAR_POINTS, rng.randint(1, 14))
        configs.append(labels.ResolutionConfig(s2=frozenset(pts)))
    ok = True
    details = {}
    for cfg in configs:
        try:
            table = chowring.table(cfg)
        except chowring.VerificationError as e:
            ok = False
            details[cfg.name() + "_error"] = str(e)
            continue
        details[cfg.name()] = "x".join(str(r) for r in table.ranks)
        ok = ok and table.ranks == chowring._expected_profile(cfg)
    return CriterionResult("config-family", ok, details)


# -- 3 ----------------------------------------------------------------------


def crit_boundary_census():
    """Vertex, per-type edge, and top-simplex counts of the unresolved
    boundary complex."""
    cx = boundarycomplex.build_complex(None)
    census = boundarycomplex.edge_census(cx)
    want = dict(
        zip(
            boundarycomplex._EDGE_TYPES,
            (90, 10, 45, 15, 60, 60, 180, 90),
        )
    )
    f = cx.f_vector()
    ok = f == (65, 550, 1410, 1065, 15) and census == want
    return CriterionResult(
        "boundary-census",
        ok,
        {"f_vector": "/".join(str(x) for x in f), "edges": sum(census.values())},
    )


# -- 4 ----------------------------------------------------------------------


def crit_homology():
    """Reduced homology of the unresolved complex and of three resolved
    complexes: one copy of Z^126 in degree 3 and nothing else, each within a
    minute."""
    rng = random.Random(SEED + 1)
    mixed = labels.ResolutionConfig(
        s2=frozenset(rng.sample(labels.SINGULAR_POINTS, 7))
    )
    runs = [
        ("unresolved", None),
        ("all-P1", labels.config_all_p1()),
        ("all-P2", labels.config_all_p2()),
        (mixed.name(), mixed),
    ]
    ok = True
    details = {}
    for name, cfg in runs:
        tc = time.monotonic()
        cx = boundarycomplex.build_complex(cfg)
        hom = boundarycomplex.reduced_homology(cx)
        ms = int((time.monotonic() - tc) * 1000)
        good = all(
            (h.rank, h.torsion) == ((126, ()) if h.dim == 3 else (0, ()))
            for h in hom
        )
        ok = ok and good and ms <= 60000
        details[name] = "H3=Z^%d,%dms" % (
            next(h.rank for h in hom if h.dim == 3),
            ms,
        )
    return CriterionResult("homology", ok, details)


# -- 5 ----------------------------------------------------------------------


def crit_psi_table():
    """The quartic psi numbers match the published table orbit for orbit,
    its normalizing product psi[5,6]^2 psi[6,5]^2 integrates to 1, which
    the point normalization implies, and the vanishing rule holds, inside
    the two-minute budget."""
    table = chowring.table(labels.config_all_p1())
    rep, ms = _timed(lambda: classes.psi_table(table))
    a, b = classes.psi(5, 6), classes.psi(6, 5)
    norm = chowring.integrate_product((a, a, b, b), table)
    ok = (
        not rep["published_mismatches"]
        and not rep["vanishing_rule_violations"]
        and norm == 1
        and rep["monomial_count"] == 40920
        and ms <= 120000
    )
    return CriterionResult(
        "psi-table",
        ok,
        {
            "orbits": rep["orbit_count"],
            "mismatches": len(rep["published_mismatches"]),
            "normalization": str(norm),
            "ms": ms,
        },
    )


# -- 6 ----------------------------------------------------------------------


def crit_m0n_oracles():
    """The four-to-seven-point oracles: Chow ranks, every psi integral against
    the multinomial formula, and the 0/1 table for psi products on the
    five-line space."""
    ok = True
    details = {}
    want_ranks = {
        4: (1, 1), 5: (1, 5, 1), 6: (1, 16, 16, 1), 7: (1, 42, 127, 42, 1)
    }
    rings = {}
    for n in want_ranks:
        ring = rings[n] = m0nring.M0nRing(n)
        good = ring.ranks == want_ranks[n]
        psis = [m0nring.m0n_psi(i, ring) for i in range(1, n + 1)]
        # the gaps between n - 1 bars in 2n - 4 slots: every exponent vector
        # summing to n - 3, in lexicographic order
        for bars in itertools.combinations(range(2 * n - 4), n - 1):
            expo = [b - a - 1 for a, b in zip((-1, *bars), (*bars, 2 * n - 4))]
            factors = [psis[i] for i, e in enumerate(expo) for _ in range(e)]
            val = chowring.integrate_product(factors, ring)
            if val != m0nring.psi_multinomial(n, expo):
                good = False
                break
        details["n%d" % n] = "ok" if good else "bad"
        ok = ok and good

    ring5 = rings[5]

    def psi_lines(i, j):
        rest = [m for m in range(1, 6) if m not in (i, j)]
        a = ring5.gens.index(m0nring.m0n_divisor(5, {j, rest[0]}))
        b = ring5.gens.index(m0nring.m0n_divisor(5, {rest[1], rest[2]}))
        return chowring.RingElement({(a,): 1, (b,): 1})

    lines_ok = True
    ordered = [(i, j) for i in range(1, 6) for j in range(1, 6) if i != j]
    for (i1, j1), (i2, j2) in itertools.product(ordered, repeat=2):
        val = chowring.integrate_product(
            (psi_lines(i1, j1), psi_lines(i2, j2)), ring5
        )
        if val != (0 if i1 == i2 else 1):
            lines_ok = False
            break
    details["five-line"] = "ok" if lines_ok else "bad"
    ok = ok and lines_ok
    return CriterionResult("m0n-oracles", ok, details)


# -- 7 ----------------------------------------------------------------------


def crit_picard():
    """The 36 delta classes descend, are independent, and span the kernel of
    the line restrictions; the singular space has Picard rank 36."""
    table = chowring.table(labels.config_all_p1())
    try:
        basis, ranks = classes.picard_m36(table)
        ok = len(basis) == 36 and ranks == (1, 36, 127, 51, 1)
        details = {"classes": len(basis), "m36_ranks": "x".join(map(str, ranks))}
    except chowring.VerificationError as e:
        ok = False
        details = {"error": str(e)}
    return CriterionResult("picard-rank", ok, details)


# -- 8 ----------------------------------------------------------------------


def crit_canonical():
    """K and K+B coefficients, the pullback identity, vanishing of K+B on
    every exceptional line, and positivity of (K+B)^4 against the recorded
    baseline."""
    table = chowring.table(labels.config_all_p1())
    base = load_baselines()
    try:
        cc = classes.canonical_classes(table)
    except chowring.VerificationError as e:
        return CriterionResult("canonical-classes", False, {"error": str(e)})
    k = cc["K"]
    coeff_ok = all(
        k.coeffs[(labels.divisor_index(d),)] == classes.K_COEFFS[d.kind]
        for d in labels.DIVISORS
    )
    kb = cc["K_plus_B"]
    kb_ok = all(
        kb.coeffs[(labels.divisor_index(d),)] == classes.KB_COEFFS[d.kind]
        for d in labels.DIVISORS
    )
    kb4_ok = cc["kb4"] == Fraction(base["kb4"]) and cc["kb4"] > 0
    ok = coeff_ok and kb_ok and kb4_ok and bool(cc["identity_readings"])
    return CriterionResult(
        "canonical-classes",
        ok,
        {
            "kb4": str(cc["kb4"]),
            "identity": ",".join(cc["identity_readings"]),
            "coefficients": "ok" if (coeff_ok and kb_ok) else "bad",
        },
    )


# -- 9 ----------------------------------------------------------------------


def crit_blowup_recursion():
    ranks = chowring.blowup_rank_recursion()
    ok = ranks == (1, 51, 127, 51, 1)
    return CriterionResult(
        "blowup-recursion",
        ok,
        {"ranks": "x".join(str(r) for r in ranks)},
    )


# -- 10 ---------------------------------------------------------------------


def crit_micro_curves():
    table = chowring.table(labels.config_all_p1())
    rep = classes.curve_checks(table)
    bad = [
        "%s|%s" % (name, row["against"])
        for name in ("pair-chain", "triple-chain", "pair-cyclic")
        for row in rep[name]
        if not row["ok"]
    ]
    return CriterionResult(
        "micro-curves",
        rep["all_ok"],
        {"checks": 9, "failed": ",".join(bad) or "none"},
    )


# -- 11 ---------------------------------------------------------------------


def crit_property_suites():
    """Symmetry and soundness sweeps: relabeling and duality invariance of
    the integral on sampled monomials, restriction multiplicativity on all
    generator pairs (multiplied in the quotient, so a pair that does not
    meet must restrict to zero), psi well-definedness across all twelve
    formula choices, and annihilation of the integration functional on every
    relation row."""
    table = chowring.table(labels.config_all_p1())
    rng = random.Random(SEED + 2)
    details = {}

    monomials = table.degrees[4].monomials
    sample = rng.sample(list(monomials), 500)
    sym_ok = True
    for mono in sample:
        e = chowring.RingElement({mono: 1})
        v = chowring.integrate(e, table)
        for sigma in labels.S6_GENERATORS:
            if chowring.integrate(chowring.apply_perm_element(sigma, e), table) != v:
                sym_ok = False
                break
        if chowring.integrate(chowring.duality_element(e), table) != v:
            sym_ok = False
        if not sym_ok:
            break
    details["symmetry"] = "ok(500)" if sym_ok else "bad"

    mult_ok = True
    pts = list(labels.SINGULAR_POINTS)
    gens = [chowring.RingElement.from_divisor(d) for d in labels.DIVISORS]
    fibers = {
        pt: [chowring.restrict_to_fiber(g, pt, table.config) for g in gens]
        for pt in pts
    }
    for i in range(65):
        for j in range(i, 65):
            prod = chowring.product((gens[i], gens[j]), table)
            for pt in pts:
                lhs = chowring.restrict_to_fiber(prod, pt, table.config)
                rhs = fibers[pt][i] * fibers[pt][j]
                if lhs != rhs:
                    mult_ok = False
                    break
            if not mult_ok:
                break
        if not mult_ok:
            break
    details["restriction"] = "ok(2145x15)" if mult_ok else "bad"

    psi_ok = True
    for i, j in classes.PSI_PAIRS:
        ref = None
        for cand in classes.psi_choices(i, j):
            if ref is None:
                ref = cand
                continue
            if not chowring.is_zero_in(cand - ref, table):
                psi_ok = False
                break
        if not psi_ok:
            break
    details["psi-choices"] = "ok(30x12)" if psi_ok else "bad"

    func = table.degrees[4].functional
    sweep_rows = 0
    sweep_ok = True
    for row in table.relation_row_stream(4):
        total = 0
        for c, v in row.items():
            total += v * func[c]
        if total:
            sweep_ok = False
            break
        sweep_rows += 1
    details["annihilation"] = (
        "ok(%d rows)" % sweep_rows if sweep_ok else "bad"
    )

    ok = sym_ok and mult_ok and psi_ok and sweep_ok
    return CriterionResult("property-suites", ok, details)


# ---------------------------------------------------------------------------


CRITERIA = {
    "ranks-m1": crit_ranks_m1,
    "config-family": crit_config_family,
    "boundary-census": crit_boundary_census,
    "homology": crit_homology,
    "psi-table": crit_psi_table,
    "m0n-oracles": crit_m0n_oracles,
    "picard-rank": crit_picard,
    "canonical-classes": crit_canonical,
    "blowup-recursion": crit_blowup_recursion,
    "micro-curves": crit_micro_curves,
    "property-suites": crit_property_suites,
}


def run_acceptance(suite="acceptance"):
    """Run every criterion ("acceptance") or the one named, timing each one
    into its runtime_ms; returns (results, all_ok)."""
    if suite != "acceptance" and suite not in CRITERIA:
        raise ValueError("unknown suite %r" % (suite,))
    results = []
    for name in tuple(CRITERIA) if suite == "acceptance" else (suite,):
        res, ms = _timed(CRITERIA[name])
        res.runtime_ms = ms
        results.append(res)
    return results, all(r.ok for r in results)
