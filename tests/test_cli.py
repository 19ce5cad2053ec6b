"""Command line: expression grammar, exit codes, output formats."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import m36
from m36 import chowring, classes, cli, labels
from m36.chowring import RingElement
from m36.classes import (
    delta_cyclic,
    delta_pair,
    delta_triple,
    load_published_psi_table,
    phi,
    psi,
    _orbit_min,
    _parse_orbit,
)
from m36.cli import UsageError, main, parse_expression, _parse_point


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
        basis = classes.picard_m36_basis(table)
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
            got[_orbit_min(_parse_orbit(key))] = int(value)
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
