"""Acceptance gate: every headline criterion, one pass/fail line each.

Each test drives the corresponding criterion function from
m36.verification and prints its summary line, so `pytest -s` (or the
failure output) shows the same report as `m36 verify`.
"""

from m36 import chowring, verification


def run(res):
    print(res.line())
    assert res.ok, res.line()
    return res


def test_ranks_m1():
    res = run(verification.crit_ranks_m1())
    assert res.details["exact_ms"] <= 600000
    assert res.details["two-prime_ms"] <= 60000


def test_config_family():
    res = run(verification.crit_config_family())
    assert res.details["all-P2"] == "1x51x142x51x1"
    assert len(res.details) == 4


def test_boundary_census():
    run(verification.crit_boundary_census())


def test_homology():
    res = run(verification.crit_homology())
    assert len(res.details) == 4


def test_psi_table():
    res = run(verification.crit_psi_table())
    assert res.details["orbits"] == 126
    assert res.details["mismatches"] == 0


def test_m0n_oracles():
    res = run(verification.crit_m0n_oracles())
    assert res.details == {
        "n4": "ok", "n5": "ok", "n6": "ok", "n7": "ok", "five-line": "ok"
    }


def test_picard_rank():
    res = run(verification.crit_picard())
    assert res.details["m36_ranks"] == "1x36x127x51x1"


def test_canonical_classes():
    res = run(verification.crit_canonical())
    assert res.details["kb4"] == "1502"
    assert res.details["identity"] == "cyclics-repeated"


def test_blowup_recursion():
    run(verification.crit_blowup_recursion())


def test_micro_curves():
    res = run(verification.crit_micro_curves())
    assert res.details["failed"] == "none"


def test_property_suites():
    res = run(verification.crit_property_suites())
    assert res.details["symmetry"] == "ok(500)"
    assert res.details["restriction"] == "ok(2145x15)"
    assert res.details["psi-choices"] == "ok(30x12)"
    assert res.details["annihilation"].startswith("ok(")


def test_criteria_read_the_shared_table(table, monkeypatch):
    # once all-P1 is cached, a criterion that needs it builds nothing
    def refuse(*_args, **_kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(chowring, "build_quotient", refuse)
    results, ok = verification.run_acceptance("picard-rank")
    assert ok, results[0].line()
