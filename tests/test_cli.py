"""Command line: expression grammar, exit codes, output formats."""

import functools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import m36
from m36 import boundarycomplex, chowring, classes, cli, labels
from m36.chowring import RingElement
from m36.classes import (
    delta_cyclic,
    delta_pair,
    delta_triple,
    load_published_psi_table,
    phi,
    psi,
    _parse_orbit,
)
from m36.cli import UsageError, main, parse_expression, _parse_point
from oracles import free_ring_outcome, orbit_min


@pytest.fixture()
def mixed_config(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"S2": [["12", "34", "56"]]}))
    return str(path)


@pytest.fixture()
def p1_config(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(json.dumps({"S2": []}))
    return str(path)


class TestExpressionGrammar:
    def test_atoms(self):
        assert parse_expression("F[12]") == RingElement.from_divisor(
            labels.pair((1, 2))
        )
        assert parse_expression("E[123]") == RingElement.from_divisor(
            labels.triple((1, 2, 3))
        )
        assert parse_expression("G[12,34,56]") == RingElement.from_divisor(
            labels.cyclic((1, 2), (3, 4), (5, 6))
        )
        assert parse_expression("psi[1,2]") == psi(1, 2)
        assert parse_expression("phi[1,2]") == phi(1, 2)

    def test_delta_shapes(self):
        assert parse_expression("delta[123]") == delta_triple((1, 2, 3))
        assert parse_expression("delta[123,456]") == delta_triple((1, 2, 3))
        assert parse_expression("delta[12,3,456]") == delta_pair((1, 2))
        assert parse_expression("delta[12,34,56]") == delta_cyclic(
            ((1, 2), (3, 4), (5, 6))
        )

    def test_parse_round_trip(self):
        for d in labels.DIVISORS:
            assert parse_expression(d.name()) == RingElement.from_divisor(d)

    def test_parse_rejects_garbage(self):
        for bad in ("E[12]", "F[123]", "G[12,34]", "H[123]", "E[127]", "G[12,23,45]", ""):
            with pytest.raises(UsageError):
                parse_expression(bad)

    def test_arithmetic(self):
        e = parse_expression("(F[12] + F[34])^2 - 2*F[12]*F[34]")
        f12 = RingElement.from_divisor(labels.pair((1, 2)))
        f34 = RingElement.from_divisor(labels.pair((3, 4)))
        assert e == f12 * f12 + f34 * f34
        assert parse_expression("-F[12]") == -f12
        assert parse_expression("1/2 * F[12] + 1/2 * F[12]") == f12
        assert parse_expression("3") == RingElement.one().scale(3)

    def test_precedence(self):
        f12 = RingElement.from_divisor(labels.pair((1, 2)))
        f34 = RingElement.from_divisor(labels.pair((3, 4)))
        assert parse_expression("F[12] + F[34]^2") == f12 + f34 * f34

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "F[12",
            "E[12]",
            "G[12,34]",
            "psi[1,1]",
            "delta[12,4,356]",
            "delta[123,455]",
            "delta[12,34,65,12]",
            "F[12] ** 2",
            "F[12]^5",
            "F[12] F[34]",
            "(F[12]",
            "F[12] +",
            "Q[12]",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(UsageError):
            parse_expression(text)

    def test_points(self):
        pt = labels.singular_point(((1, 2), (3, 4), (5, 6)))
        assert _parse_point("12,34,56") == pt
        assert _parse_point("P[12,34,56]") == pt
        assert _parse_point(" 34, 12, 56 ") == pt
        for bad in ("12,34", "12,34,55", "1,2,3", "12.34.56"):
            with pytest.raises(UsageError):
                _parse_point(bad)


class TestExitCodes:
    def test_integrate_known_values(self, capsys):
        cases = [
            ("psi[5,6]^2 * psi[6,5]^2", "1"),
            ("psi[1,2]*psi[2,3]*psi[3,1]*psi[4,5]", "9"),
            ("psi[1,2]*psi[2,3]*psi[3,4]*psi[5,6]", "8"),
            ("psi[1,2]^2*psi[1,3]*psi[4,5]", "0"),
            ("(K+B)^4", "1502"),
            ("F[12]*F[34]*F[56]*G[12,34,56]", "1"),
            ("E[123]*E[124]*F[12]*F[12]", "0"),
            ("F[12]^0*psi[1,2]^4", "0"),
            ("(psi[1,2]^2)^2", "0"),
            ("(psi[5,6]*psi[6,5])^2", "1"),
        ]
        for expr, want in cases:
            rc = main(["integrate", expr, "--mode", "exact", "--format", "csv"])
            assert rc == 0
            assert capsys.readouterr().out == want + "\n"

    def test_integrate_wrong_degree(self, capsys):
        assert main(["integrate", "F[12]", "--mode", "exact"]) == 2
        assert "degree 4" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["F[12]*F[13]", "F[12]*F[13]+psi[1,2]^4"])
    def test_integrate_degree_read_in_free_ring(self, capsys, text):
        # F12*F13 is zero in the ring of all-P1 but of degree 2 in the free
        # ring, and the integrand check reads the free ring
        assert main(["integrate", text, "--mode", "exact"]) == 2
        assert "degree 4" in capsys.readouterr().err

    def test_degree_cap_read_in_free_ring(self, capsys):
        # zero in the quotient before the last factor, of degree 5 in the
        # free ring: refused as before
        for argv in (
            ["integrate", "(F[12]*F[13])^2*F[12]"],
            ["restrict", "(F[12]*F[13])^2*F[12]", "--point", "12,34,56"],
        ):
            assert main(argv) == 2
            assert "exceeds degree 4" in capsys.readouterr().err
        # nominal degree 5, but the free ring cancels first
        assert main(["integrate", "(F[12]-F[12])*F[12]^4", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "0\n"
        # a zeroth power still reads its base
        assert main(["integrate", "(F[12]^4*F[13])^0*psi[1,2]^4"]) == 2
        assert "exceeds degree 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("psi[1,2]^4*psi[1,3]", "product exceeds degree 4"),
            # the whole expression is parsed before any product is formed,
            # so a later syntax or label error is the one reported
            ("psi[1,2]^4*psi[1,3] +", "unexpected end of expression"),
            ("psi[1,2]^4*psi[1,3]*E[12]", "E takes one group of three lines"),
        ],
    )
    def test_parse_errors_before_degree_cap(self, capsys, text, message):
        assert main(["integrate", text]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.mark.parametrize("command", ["integrate", "restrict"])
    def test_space_inside_a_digit_group(self, capsys, command):
        # refused with the atom as typed; spaces around a group stay allowed
        point = ["--point", "12,34,56"] if command == "restrict" else []
        for text, code, err in [
            ("F[1 2]^4", 2, "error: space inside a group of digits in F[1 2]\n"),
            (
                "delta[12, 3,4 56]*psi[1, 2]^3",
                2,
                "error: space inside a group of digits in delta[12, 3,4 56]\n",
            ),
            ("psi[1, 2]^2 * psi[ 2 ,1 ]^2", 0, ""),
        ]:
            assert main([command, text, *point]) == code
            assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "text,code",
        [
            ("(" * 200 + "F[12]" + ")" * 200, 0),
            ("+".join(["F[12]"] * 5000), 0),
            ("(" * 400 + "F[12]" + ")" * 400, 2),
            ("F[12]+" + "-" * 3000 + "F[12]", 2),
        ],
        ids=["parens-200", "sum-5000", "parens-400", "minus-3000"],
    )
    def test_deep_nesting_is_a_usage_error(self, capsys, text, code):
        assert main(["restrict", text, "--point", "12,34,56"]) == code
        err = capsys.readouterr().err
        assert err == ("error: expression nested too deeply\n" if code else "")

    def test_expression_opening_with_minus(self, capsys):
        # argparse reads an argument that opens with "-" as an option, and
        # "--" ends the options; the help of both commands says so
        text = "-psi[1,2]*psi[2,3]*psi[3,1]*psi[4,5]"
        assert main(["integrate", text]) == 2
        assert "required: expression" in capsys.readouterr().err
        assert main(["integrate", "--format", "csv", "--", text]) == 0
        assert capsys.readouterr().out == "-9\n"
        assert main(["restrict", "--point", "12,34,56", "--", "-F[12]"]) == 0
        assert json.loads(capsys.readouterr().out)["coefficients"] == ["0", "1"]
        for command in ("integrate", "restrict"):
            assert main([command, "--help"]) == 0
            assert 'goes after "--"' in capsys.readouterr().out

    def test_atoms_built_once(self, monkeypatch, capsys, table):
        calls = []

        def counted(*args):
            calls.append(args)
            return psi(*args)

        monkeypatch.setattr(cli.classes, "psi", counted)
        assert main(["integrate", "psi[1,2]*psi[2,3]*psi[3,1]*psi[4,5]"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "9"
        assert calls == [(1, 2), (2, 3), (3, 1), (4, 5)]

    @pytest.mark.parametrize(
        "text", ["F[12]", "F[12]*F[13]", "F[12", "E[12]", "F[12]^4*F[12]", "1/0"]
    )
    def test_rejected_before_any_table(self, capsys, monkeypatch, tmp_path, text):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(cli.chowring, "build_quotient", refuse)
        path = tmp_path / "unbuilt.json"
        path.write_text(json.dumps({"S2": [["13", "25", "46"]]}))
        assert main(["integrate", text, "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, capsys):
        assert main(["integrate", "F[12", "--mode", "exact"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["ranks", "--config", missing, "--mode", "exact"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"S2": [["12", "34"]]}')
        assert main(["ranks", "--config", str(bad), "--mode", "exact"]) == 2
        overlapping = tmp_path / "overlap.json"
        overlapping.write_text('{"S2": [["12", "13", "46"]]}')
        assert main(["ranks", "--config", str(overlapping), "--mode", "exact"]) == 2

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["restrict", "F[12]"]) == 2
        assert main(["ranks", "--mode", "floating"]) == 2

    def test_verify_suites(self, capsys):
        assert main(["verify", "--suite", "blowup-recursion", "--format", "text"]) == 2
        rc = main(["verify", "--suite", "blowup-recursion", "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("PASS blowup-recursion")
        assert out.endswith("all passed\n")

    def test_verify_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "everything"]) == 2

    def test_psi_table_needs_all_p1(self, capsys, mixed_config):
        assert main(["psi-table", "--config", mixed_config]) == 2
        assert "all-P1" in capsys.readouterr().err

    def test_picard_needs_all_p1(self, capsys, mixed_config):
        assert main(["picard", "--config", mixed_config]) == 2

    def test_unwritable_out(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert main(["homology", "--unresolved", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert not out.exists()


# Atoms of the fuzz carry the number of terms of their free-ring value, and
# a budget on the product of those numbers bounds the cost of expanding a
# product: K, B and phi have 65, 65 and 22 terms, and a free degree-4 product
# of them takes 25-35 s, so they stay out of all but the cheapest ones.
_DIVISOR_NAMES = [d.name() for d in labels.DIVISORS]
_DELTA_NAMES = [classes.delta_name(label) for label in classes.PICARD_LABELS]


def _fuzz_atom(rng, budget):
    """(text, free-ring terms) of a random atom with at most budget terms."""
    i, j = rng.sample(range(1, 7), 2)
    choices = [(rng.choice(_DIVISOR_NAMES), 1), (rng.choice(_DELTA_NAMES), 4)]
    choices += [("psi[%d,%d]" % (i, j), 15), ("psi[%d, %d]" % (i, j), 15)]
    choices += [("phi[%d,%d]" % (i, j), 22), ("K", 65), ("B", 65)]
    return rng.choice([c for c in choices if c[1] <= budget])


def _fuzz_factor(rng, degree, budget):
    """(text, terms) of a random factor of nominal degree degree."""
    if degree == 0:
        if rng.random() < 0.2:
            text, terms = _fuzz_atom(rng, budget)
            return "%s^0" % text, terms
        return rng.choice(["2", "1/2", "3", "-2/3", "0", "1"]), 1
    if degree == 1 and rng.random() < 0.7:
        return _fuzz_atom(rng, budget)
    roll = rng.random()
    if roll < 0.3:
        text, terms = _fuzz_atom(rng, round(budget ** (1 / degree)))
        return "%s^%d" % (text, degree), terms**degree
    if roll < 0.45 and degree > 1:
        text, terms = _fuzz_expr(rng, 1, round(budget ** (1 / degree)))
        return "(%s)^%d" % (text, degree), terms**degree
    text, terms = _fuzz_expr(rng, degree, budget)
    return "(%s)" % text, terms


@functools.cache
def _quartics():
    """The degree-4 monomials supported on faces of the unresolved complex,
    most of them nonzero in the rings of the fuzz."""
    return chowring.admissible_monomials(boundarycomplex.build_complex(), 4)


def _fuzz_term(rng, degree, budget):
    """(text, terms) of a random product of nominal degree degree; one in
    three of degree 4 is a monomial on a face."""
    if degree == 4 and rng.random() < 0.35:
        mono = rng.choice(_quartics())
        return "*".join(_DIVISOR_NAMES[d] for d in mono), 1
    parts = [0] * rng.randint(0, 1)
    left = degree
    while left:
        part = rng.randint(1, min(left, 2))
        parts.append(part)
        left -= part
    rng.shuffle(parts)
    texts, terms = [], 1
    for part in parts or [0]:
        text, t = _fuzz_factor(rng, part, max(1, budget // terms))
        if rng.random() < 0.1:
            text = "-" + text
        texts.append(text)
        terms *= t
    return rng.choice(["*", " * "]).join(texts), terms


def _fuzz_expr(rng, degree, budget):
    """(text, terms) of a random sum, most of its terms of nominal degree
    degree, some of other degrees, and some cancelled by a copy of
    opposite sign: most of those of other degrees."""
    texts, terms = [], 0
    for i in range(rng.choice([1, 1, 2, 3])):
        k = degree if rng.random() < 0.8 else rng.choice([0, 1, 2, 3, 4, 5])
        text, t = _fuzz_term(rng, k, budget)
        sign = " + " if rng.random() < 0.7 else " - "
        texts.append(text if i == 0 else sign + text)
        if rng.random() < (0.1 if k == degree else 0.6):
            # the copy of opposite sign
            texts.append(" - (%s)" % text if i == 0 or sign == " + " else " + " + text)
        terms += t
    return "".join(texts), terms


def _fuzz_text(rng):
    """A random expression, mostly of nominal degree 4, whose free-ring
    expansion forms a few hundred terms at most.  One in six adds to it a
    product of nominal degree 5 that is zero in the free ring, which sends
    both commands there; one in twenty is broken."""
    high = rng.random() < 1 / 6
    if high:
        degree = rng.choice([0, 1, 2, 4])
    else:
        degree = 4 if rng.random() < 0.6 else rng.choice([0, 1, 2, 3, 5])
    text, _terms = _fuzz_expr(rng, degree, 300)
    if high:
        quartic, terms = _fuzz_term(rng, 4, 100)
        atom, _terms = _fuzz_atom(rng, max(1, 300 // terms))
        text = "%s + (%s - (%s))*%s" % (text, quartic, quartic, atom)
    if rng.random() < 0.05:
        text = rng.choice(
            [text + " +", "(" + text, text.replace("]", "", 1), text + "*E[12]"]
        )
    return text


class TestFreeRingOracle:
    """cli.main takes an expression's value in the quotient when its nominal
    degrees settle the integrand check, and in the free ring otherwise.
    Either way `integrate` and `restrict` must give the exit code, standard
    error and value of the free ring alone (oracles.free_ring_outcome)."""

    NAMED = [
        "(F[12]^4-F[12]^4)*F[13]",
        "(F[12]^4-2*F[12]^4)*F[13]",
        "(B-%s)*F[12]^4" % "-".join(_DIVISOR_NAMES),
        "(%s)*F[12]^4"
        % "+".join(
            "(%d)*%s" % (c, _DIVISOR_NAMES[m[0]])
            for m, c in chowring.linear_relations()[0].coeffs.items()
        ),
        "(phi[1,2]-psi[1,2]-psi[2,1])*F[12]^4",
    ]

    @staticmethod
    def _outcomes(capsys, text, t, pt, config_args):
        """The outcomes of cli.main and of the oracle on both commands."""
        for command in ("integrate", "restrict"):
            point = ["--point", pt.name()] if command == "restrict" else []
            # after "--", a text that opens with "-" is not read as an option
            rc = main([command, *point, *config_args, "--", text])
            out, err = capsys.readouterr()
            value = None
            if rc == 0:
                report = json.loads(out)
                value = report["value" if command == "integrate" else "coefficients"]
            yield command, (rc, err, value), free_ring_outcome(command, text, t, pt)

    @pytest.mark.parametrize("text", NAMED, ids=range(len(NAMED)))
    def test_named(self, capsys, table, text):
        pt = labels.SINGULAR_POINTS[0]
        for command, got, want in self._outcomes(capsys, text, table, pt, []):
            assert got == want, command

    def test_fuzz(self, capsys, tmp_path, table, table_mixed):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(table_mixed.config.to_json_dict()))
        configs = [(table, []), (table_mixed, ["--config", str(path)])]
        rng = random.Random(2336)
        seen = Counter()
        for i in range(300):
            text = _fuzz_text(rng)
            pt = rng.choice(labels.SINGULAR_POINTS)
            t, config_args = configs[i % 2]
            try:
                nominal = cli._nominal_degrees(cli._parse(text))
            except UsageError:
                nominal = "syntax"
            outcomes = self._outcomes(capsys, text, t, pt, config_args)
            for command, got, want in outcomes:
                assert got == want, (command, text)
                _rc, err, value = got
                # the way cli.main takes
                if nominal == "syntax":
                    way = "syntax"
                elif nominal is None or (command == "integrate" and nominal - {4}):
                    way = "free"
                else:
                    way = "quotient"
                if value is None:
                    # "integrand must be ...", "product exceeds ..." or a
                    # syntax error
                    kind = err.split()[1]
                else:
                    kind = "zero" if value in ("0", ["0"] * len(value)) else "value"
                seen[way, command, kind] += 1
        want = [("quotient", "integrate", k) for k in ("value", "zero")]
        want += [
            ("free", "integrate", k) for k in ("value", "zero", "integrand", "product")
        ]
        want += [("quotient", "restrict", k) for k in ("value", "zero")]
        want += [("free", "restrict", k) for k in ("value", "zero", "product")]
        assert min(seen[k] for k in want) >= 10, seen
        assert sum(n for (way, *_), n in seen.items() if way == "syntax") >= 10, seen


def _fold_text(rng):
    """A random sum of degree-4 products, with negations, rational
    constants, powers, and K, B or K+B in some products, whose free-ring
    expansion stays small."""
    atoms = [(name, 1) for name in _DIVISOR_NAMES[::13]]
    atoms += [(name, 4) for name in _DELTA_NAMES[::12]]
    # psi classes, most of the draws: their products are zero least often
    atoms += [
        ("psi[%d,%d]" % (i, j), 15) for i in range(1, 7) for j in (1, 4) if i != j
    ]
    terms = []
    for i in range(rng.randint(1, 4)):
        parts, left, size = [], 4, 1
        if rng.random() < 0.3:
            parts.append(rng.choice(["K", "B", "(K+B)"]))
            left, size = 3, 65
        while left:
            name, n = rng.choice([a for a in atoms if a[1] * size <= 1000 or a[1] == 1])
            power = rng.randint(1, min(left, 2))
            parts.append(name if power == 1 else "%s^%d" % (name, power))
            left, size = left - power, size * n**power
        rng.shuffle(parts)
        if rng.random() < 0.4:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(["2", "1/2", "3/4"]))
        text = "*".join(parts)
        if rng.random() < 0.2:
            text = "-" + text if rng.random() < 0.5 else "-(%s)" % text
        if i:
            text = rng.choice([" + ", " - "]) + text
        terms.append(text)
    text = "".join(terms)
    return "-(%s)" % text if rng.random() < 0.15 else text


class TestLinearFold:
    """`integrate` folds a tree of nominal degree 4 linearly, one
    chowring.integrate_product per product node; it must print what the
    free ring gives."""

    def test_matches_the_free_ring(self, capsys, table):
        rng = random.Random(36636)
        pt = labels.SINGULAR_POINTS[0]
        nonzero = 0
        for _ in range(60):
            text = _fold_text(rng)
            assert cli._in_quotient(cli._parse(text), 4), text
            outcomes = TestFreeRingOracle._outcomes(capsys, text, table, pt, [])
            for command, got, want in outcomes:
                assert got == want, (command, text)
                nonzero += command == "integrate" and got[2] != "0"
        assert nonzero >= 20

    def test_kb4(self, capsys, table):
        # the free-ring expansion of (K+B)^4 takes half a minute, so the
        # oracle here is the product taken in the quotient, and 1502
        kb = classes.canonical_divisor() + classes.total_boundary()
        kb4 = chowring.integrate(chowring.product((kb,) * 4, table), table)
        assert kb4 == 1502
        for text, value in [
            ("(K+B)^4", kb4),
            ("-(K+B)^4 + 1/2*(K+B)^2*(K+B)^2", -kb4 / 2),
            ("(K+B)^4 - (K+B)^3*K - (K+B)^3*B", 0),
        ]:
            assert main(["integrate", "--", text]) == 0
            out = capsys.readouterr().out
            assert json.loads(out)["value"] == str(value), text
            assert main(["integrate", "--format", "csv", "--", text]) == 0
            assert capsys.readouterr().out == "%s\n" % value

    def test_integrals_form_no_product(self, capsys, monkeypatch, table):
        # a psi quartic and (K+B)^4 are one integrate_product each: neither
        # the free product nor the quotient product runs
        def refuse(*args, **kwargs):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(cli, "_free_product", refuse)
        monkeypatch.setattr(chowring, "product", refuse)
        for text, value in [
            ("psi[1,2]*psi[2,3]*psi[3,1]*psi[4,5]", "9"),
            ("(K+B)^4", "1502"),
        ]:
            assert main(["integrate", text]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == value

    def test_nested_products_join_the_chain(self, capsys, monkeypatch, table):
        # a power inside a product gives its factors to the one
        # integrate_product of the outer node: no quotient product is taken
        # first, and the values are those of the flat products
        calls = []
        product = chowring.product

        def counting(*args, **kwargs):
            calls.append(args)
            return product(*args, **kwargs)

        monkeypatch.setattr(chowring, "product", counting)
        for text, value in [
            ("psi[5,6]^2*psi[6,5]^2", "1"),
            ("(K+B)^2*(K+B)^2", "1502"),
            ("(psi[5,6]*psi[5,6])*psi[6,5]^2", "1"),
        ]:
            assert main(["integrate", text]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == value, text
        assert calls == []


class TestOutputs:
    def test_ranks_json(self, capsys):
        assert main(["ranks", "--mode", "exact"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["ranks"] == [1, 51, 127, 51, 1]
        assert rep["mode"] == "exact"
        assert rep["torsion_free"] is True
        assert rep["config"] == {"S2": []}

    def test_one_table_per_config(self, capsys):
        cfg = labels.config_all_p1()
        assert chowring.table(cfg) is chowring.table(cfg)
        assert cli._table(cfg, "exact") is chowring.table(cfg)
        assert cli._table(cfg, "exact") is cli._table(cfg, "two-prime")
        for mode in ("exact", "two-prime"):
            assert main(["ranks", "--mode", mode]) == 0
            assert json.loads(capsys.readouterr().out)["mode"] == mode

    def test_ranks_csv_two_prime(self, capsys):
        # the default mode certifies every degree, degree 3 included
        assert main(["ranks", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "degree,rank,admissible_monomials,torsion_certified"
        assert lines[4] == "3,51,2500,yes"
        assert lines[3] == "2,127,600,yes"
        assert len(lines) == 6

    def test_ranks_mixed_config(self, capsys, mixed_config):
        assert main(["ranks", "--config", mixed_config, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "2,128,601,yes"

    def test_homology_unresolved(self, capsys):
        assert main(["homology", "--unresolved"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["faces"] == [65, 550, 1410, 1065, 15]
        assert rep["degrees"][3]["rank"] == 126

    def test_homology_config_csv(self, capsys, p1_config):
        assert main(["homology", "--config", p1_config, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "dim,rank,torsion"
        assert "3,126,-" in lines
        assert all(line.endswith(",-") for line in lines[1:])

    def test_integrate_json(self, capsys):
        rc = main(["integrate", "(K+B)^4", "--mode", "exact"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep == {
            "config": {"S2": []},
            "expression": "(K+B)^4",
            "mode": "exact",
            "value": "1502",
        }

    def test_restrict_json(self, capsys):
        rc = main(["restrict", "F[12]", "--point", "12,34,56", "--mode", "exact"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kind"] == "P1"
        assert rep["coefficients"] == ["0", "-1"]
        assert rep["pretty"] == "-p"
        assert rep["point"] == "P[12,34,56]"

    def test_restrict_kb_vanishes(self, capsys):
        rc = main(["restrict", "K + B", "--point", "P[13,25,46]", "--mode", "exact"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["coefficients"] == ["0", "0"]
        assert rep["pretty"] == "0"

    def test_restrict_csv(self, capsys):
        rc = main([
            "restrict", "G[12,34,56]", "--point", "12,34,56",
            "--mode", "exact", "--format", "csv",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "point,kind,degree,coefficient"
        assert lines[1] == "P[12,34,56],P1,0,0"
        assert lines[2] == "P[12,34,56],P1,1,1"

    def test_canonical_json(self, capsys):
        assert main(["canonical", "--mode", "exact"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kb4"] == "1502"
        assert rep["identity_readings"] == ["cyclics-repeated"]
        assert rep["coefficients"]["K"] == {
            "Triple": "-3/10",
            "Pair": "-1/5",
            "CyclicTriple": "1/5",
        }
        assert rep["restricts_to_zero_on_lines"] is True

    def test_canonical_csv(self, capsys):
        assert main(["canonical", "--mode", "exact", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "class,triple_coeff,pair_coeff,cyclic_coeff",
            "K,-3/10,-1/5,1/5",
            "K+B,7/10,4/5,6/5",
        ]

    def test_picard_json(self, capsys):
        assert main(["picard", "--mode", "exact"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["rank"] == 36
        assert rep["m36_chow_ranks"] == [1, 36, 127, 51, 1]
        assert len(rep["classes"]) == 36
        assert rep["classes"][0] == "delta[156,234]"
        assert "delta[12,3,456]" in rep["classes"]
        assert "delta[12,34,56]" in rep["classes"]

    def test_picard_labels_parse_to_basis(self, capsys, table):
        assert main(["picard", "--format", "csv"]) == 0
        names = capsys.readouterr().out.splitlines()[1:]
        basis, _ranks = classes.picard_m36(table)
        assert len(names) == len(basis) == 36
        for name, element in zip(names, basis):
            assert parse_expression(name) == element, name

    def test_psi_table_csv(self, capsys):
        assert main(["psi-table", "--mode", "exact", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "orbit_representative,value"
        assert len(lines) == 127
        assert "12.23.31.45,9" in lines
        assert "12.23.34.56,8" in lines
        got = {}
        for line in lines[1:]:
            key, value = line.rsplit(",", 1)
            got[orbit_min(_parse_orbit(key))] = int(value)
        published = load_published_psi_table()
        assert {k: v for k, v in got.items() if v} == published

    def test_out_writes_file(self, capsys, tmp_path):
        out = tmp_path / "value.json"
        rc = main([
            "integrate", "(K+B)^4", "--mode", "exact", "--out", str(out)
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""
        rc = main(["integrate", "(K+B)^4", "--mode", "exact"])
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "psi[1,2]^2*psi[2,1]^2", "--mode", "exact"],
            ["canonical", "--mode", "exact"],
            ["homology", "--unresolved"],
            ["restrict", "K+B", "--point", "12,34,56", "--mode", "exact"],
            ["psi-table", "--mode", "exact", "--format", "csv"],
            ["picard", "--mode", "exact"],
        ],
    )
    def test_deterministic_output(self, capsys, argv):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
ONE_PLANE = str(DATA / "one-plane-fiber.json")


class TestGoldenOutputs:
    """Command outputs, frozen byte for byte; runtime_ms reads 0.  Configs
    are the default all-P1 one unless ONE_PLANE (one plane fiber over
    P[12,34,56]) is passed."""

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("ranks.json", ["ranks"]),
            ("ranks.csv", ["ranks", "--format", "csv"]),
            ("picard.json", ["picard"]),
            ("canonical.json", ["canonical"]),
            ("psi-table.csv", ["psi-table", "--format", "csv"]),
            ("integrate-kb4.json", ["integrate", "(K+B)^4"]),
            ("restrict-kb.json", ["restrict", "K+B", "--point", "12,34,56"]),
            ("ranks-one-plane.json", ["ranks", "--config", ONE_PLANE]),
            (
                "ranks-one-plane.csv",
                ["ranks", "--config", ONE_PLANE, "--format", "csv"],
            ),
            ("homology.json", ["homology"]),
            ("homology.csv", ["homology", "--format", "csv"]),
            (
                "homology-unresolved.json",
                ["homology", "--unresolved", "--config", ONE_PLANE],
            ),
            (
                "homology-one-plane.csv",
                ["homology", "--config", ONE_PLANE, "--format", "csv"],
            ),
            ("picard.csv", ["picard", "--format", "csv"]),
            ("canonical.csv", ["canonical", "--format", "csv"]),
            ("psi-table.json", ["psi-table"]),
            ("integrate-kb4.csv", ["integrate", "(K+B)^4", "--format", "csv"]),
            (
                "restrict-kb.csv",
                ["restrict", "K+B", "--point", "12,34,56", "--format", "csv"],
            ),
            ("verify-blowup.json", ["verify", "--suite", "blowup-recursion"]),
            (
                "verify-blowup.csv",
                ["verify", "--suite", "blowup-recursion", "--format", "csv"],
            ),
        ],
    )
    def test_bytes(self, capsys, name, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        out = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out)
        assert out.encode("utf-8") == (GOLDEN / name).read_bytes()

    def test_restrict_builds_a_table_only_for_a_product(self, capsys, monkeypatch):
        # restriction reads only the config's fiber kinds, so K+B gives its
        # golden bytes without a table, and a product node asks for one
        def refuse(_cfg):
            raise AssertionError("a table was asked for")

        monkeypatch.setattr(chowring, "table", refuse)
        assert main(["restrict", "K+B", "--point", "12,34,56"]) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (GOLDEN / "restrict-kb.json").read_bytes()
        with pytest.raises(AssertionError, match="a table was asked for"):
            main(["restrict", "psi[1,2]*2", "--point", "12,34,56"])

    def test_query_round(self, capsys):
        # the queries evaluated in the quotient: every psi orbit integrated
        # on all-P1, a product node of degree 1 with a Fraction factor
        # restricted at every point, and a degree-2 product restricted to
        # a plane, their stdout joined in order
        out = []
        for argv in query_round():
            assert main(argv) == 0, argv
            out.append(capsys.readouterr().out)
        want = (GOLDEN / "query-round.txt").read_bytes()
        assert "".join(out).encode("utf-8") == want


def query_round():
    """The argv lists whose joined stdout is golden/query-round.txt."""
    argvs = [
        ["integrate", "*".join("psi[%d,%d]" % p for p in rep)]
        for rep, _size in classes.psi_orbits()
    ]
    for pt in labels.SINGULAR_POINTS:
        point = ",".join("%d%d" % p for p in pt.matching)
        argvs.append(["restrict", "1/2*(F[12]-F[13])*3", "--point", point])
    argvs.append(
        ["restrict", "(F[12]+1/2*F[34])*(F[12]+F[56])", "--config", ONE_PLANE]
        + ["--point", "12,34,56"]
    )
    return argvs


def _run_python(args):
    """Run ``sys.executable`` on this checkout's m36, not an installed copy."""
    src = str(Path(m36.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


class TestInstalledEntryPoints:
    def test_console_script(self):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["m36"]
        module, func = target.split(":")
        # The body of the wrapper script that pip writes for [project.scripts].
        wrapper = f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
        proc = _run_python(
            ["-c", wrapper, "homology", "--unresolved", "--format", "csv"]
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[4] == "3,126,-"

    def test_module_invocation(self):
        proc = _run_python(["-m", "m36.cli", "verify", "--suite", "boundary-census"])
        assert proc.returncode == 0
        assert '"ok": true' in proc.stdout
