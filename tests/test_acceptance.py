"""Acceptance gate: every headline criterion, one pass/fail line each.

Each test drives the corresponding criterion function from
m36.verification and prints its summary line, so `pytest -s` (or the
failure output) shows the same report as `m36 verify`.
"""

import pytest

from m36 import verification


@pytest.fixture(scope="module")
def tables(table):
    return verification._Tables(all_p1=table)


def run(res):
    print(res.line())
    assert res.ok, res.line()
    return res


def test_ranks_m1(tables):
    res = run(verification.crit_ranks_m1(tables))
    assert res.details["exact_ms"] <= 600000
    assert res.details["two-prime_ms"] <= 60000


def test_config_family(tables):
    res = run(verification.crit_config_family(tables))
    assert res.details["all-P2"] == "1x51x142x51x1"
    assert len(res.details) == 4


def test_boundary_census():
    run(verification.crit_boundary_census())


def test_homology():
    res = run(verification.crit_homology())
    assert len(res.details) == 4


def test_psi_table(tables):
    res = run(verification.crit_psi_table(tables))
    assert res.details["orbits"] == 126
    assert res.details["mismatches"] == 0


def test_m0n_oracles():
    res = run(verification.crit_m0n_oracles())
    assert res.details == {
        "n4": "ok", "n5": "ok", "n6": "ok", "five-line": "ok"
    }


def test_picard_rank(tables):
    res = run(verification.crit_picard(tables))
    assert res.details["m36_ranks"] == "1x36x127x51x1"


def test_canonical_classes(tables):
    res = run(verification.crit_canonical(tables))
    assert res.details["kb4"] == "1502"
    assert res.details["identity"] == "cyclics-repeated"


def test_blowup_recursion():
    run(verification.crit_blowup_recursion())


def test_micro_curves(tables):
    res = run(verification.crit_micro_curves(tables))
    assert res.details["failed"] == "none"


def test_property_suites(tables):
    res = run(verification.crit_property_suites(tables))
    assert res.details["symmetry"] == "ok(500)"
    assert res.details["restriction"] == "ok(2145x15)"
    assert res.details["psi-choices"] == "ok(30x12)"
    assert res.details["annihilation"].startswith("ok(")
