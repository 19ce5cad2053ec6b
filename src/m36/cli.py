"""Command-line front end.

Commands compute, main renders.  Each cmd_*(args, cfg) builds or reads a
quotient table, evaluates what it was asked and returns its report twice,
as a JSON object and as CSV text, with an exit code; main alone loads the
config, picks the --format, writes --out or stdout and returns the code.
Exit codes: 0 success, 1 a verification failure (a theorem-guaranteed value
came out wrong), 2 usage or input errors.

Expression grammar for `integrate` and `restrict`:

    atom   := E[ijk] | F[ij] | G[ij,kl,mn] | psi[i,j] | phi[i,j]
            | delta[...] | K | B | rational | ( expr )
    factor := atom [^ n] | - factor
    term   := factor (* factor)*
    expr   := term ((+|-) term)*

delta[...] accepts the three label shapes delta[ijk,lmn], delta[ij,k,lmn]
and delta[ij,kl,mn]; labels violating the index conventions are rejected.
Rationals print as "p/q" strings.  Output is deterministic for a fixed
(command, config, mode) except for the wall-clock runtime_ms fields.

`integrate` and `restrict` evaluate products in the ring of the config
(chowring.multiply), never in the free polynomial ring, so (K+B)^4 costs a
fraction of a second.  Before any table is built, the expression is read
once for its nominal degrees: an atom has degree 1, a number degree 0, a sum
the union and a product the sums of its factors' degrees.  These contain
every degree the free-ring expansion can have.  When they lie in {4} (for
`restrict`: when no product passes degree 4) the quotient value is exact and
the check is decided.  Otherwise the expression is expanded in the free ring
as before, which decides the homogeneity check and the degree-cap error
exactly; a product that is zero only in the quotient, such as F[12]*F[13]
on the all-P1 config, still makes a degree-2 integrand that is refused.
Syntax errors and wrong degrees exit 2 before any table is built.  Tables
come from chowring.table, one per config for the whole process; the mode is
only a label echoed in reports.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import operator
import re
import sys
from fractions import Fraction

from . import boundarycomplex, chowring, classes, labels, verification


class UsageError(Exception):
    pass


# --------------------------------------------------------------------------
# expression parsing

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<name>E|F|G|psi|phi|delta)\[(?P<args>[0-9,\s]*)\]"
    r"|(?P<kb>[KB])(?![\w\[])"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<op>[-+*^()])"
    r")"
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise UsageError(
                    "cannot read expression at %r" % text[pos : pos + 20]
                )
            break
        pos = m.end()
        if m.group("name"):
            out.append(("atom", (m.group("name"), m.group("args"))))
        elif m.group("kb"):
            out.append(("atom", (m.group("kb"), "")))
        elif m.group("number"):
            out.append(("number", m.group("number")))
        else:
            out.append(("op", m.group("op")))
    return out


def _atom_element(name, args):
    groups = [g.strip() for g in args.split(",")] if args.strip() else []
    digits = [[int(ch) for ch in g] for g in groups]
    try:
        if name == "E":
            if len(digits) != 1 or len(digits[0]) != 3:
                raise ValueError("E takes one group of three lines")
            return chowring.RingElement.from_divisor(labels.triple(tuple(digits[0])))
        if name == "F":
            if len(digits) != 1 or len(digits[0]) != 2:
                raise ValueError("F takes one group of two lines")
            return chowring.RingElement.from_divisor(labels.pair(tuple(digits[0])))
        if name == "G":
            if len(digits) != 3 or any(len(g) != 2 for g in digits):
                raise ValueError("G takes three pairs")
            return chowring.RingElement.from_divisor(
                labels.cyclic(*[tuple(g) for g in digits])
            )
        if name == "psi":
            if len(digits) != 2 or any(len(g) != 1 for g in digits):
                raise ValueError("psi takes two single lines")
            return classes.psi(digits[0][0], digits[1][0])
        if name == "phi":
            if len(digits) != 2 or any(len(g) != 1 for g in digits):
                raise ValueError("phi takes two single lines")
            return classes.phi(digits[0][0], digits[1][0])
        if name == "delta":
            return classes.delta(digits)
        if name == "K":
            return classes.canonical_divisor()
        if name == "B":
            return classes.total_boundary()
    except ValueError as e:
        raise UsageError(str(e))
    raise UsageError("unknown atom %r" % name)


class _FreeRing:
    """Parser values in the free polynomial ring on the 65 divisors."""

    atom = staticmethod(_atom_element)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    pow = staticmethod(operator.pow)

    @staticmethod
    def number(q):
        return chowring.RingElement.one() * q


class _QuotientRing(_FreeRing):
    """Parser values in the ring of one table: products drop inadmissible
    monomials as they form."""

    def __init__(self, table):
        self.table = table

    def mul(self, a, b):
        return chowring.multiply(a, b, self.table)

    def pow(self, a, n):
        return chowring.power(a, n, self.table)


class _NominalDegrees:
    """Parser values that are sets of nominal degrees, a superset of the
    degrees of the free-ring value.  Atoms are still built, so bad labels
    fail as in the free ring.  `exceeded` records a product whose nominal
    degree passed 4: the free ring may or may not refuse it."""

    def __init__(self):
        self.exceeded = False

    def atom(self, name, args):
        _atom_element(name, args)
        return frozenset((1,))

    @staticmethod
    def number(_q):
        return frozenset((0,))

    @staticmethod
    def add(a, b):
        return a | b

    sub = add

    @staticmethod
    def neg(a):
        return a

    def mul(self, a, b):
        out = frozenset(x + y for x in a for y in b)
        if max(out) > chowring.MAX_DEGREE:
            self.exceeded = True
        return out

    def pow(self, a, n):
        out = frozenset((0,))
        for _ in range(n):
            out = self.mul(out, a)
        return out


class _Parser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.ring = ring
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise UsageError("unexpected end of expression")
        self.pos += 1
        return tok

    def expr(self):
        out = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            out = self.ring.add(out, rhs) if op == "+" else self.ring.sub(out, rhs)
        return out

    def term(self):
        out = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            try:
                out = self.ring.mul(out, self.factor())
            except ValueError as e:
                raise UsageError(str(e))
        return out

    def factor(self):
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            return self.ring.neg(self.factor())
        out = self.base()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "number" or "/" in val:
                raise UsageError("exponent must be a nonnegative integer")
            n = int(val)
            if n > chowring.MAX_DEGREE:
                raise UsageError("exponent exceeds the top degree")
            try:
                out = self.ring.pow(out, n)
            except ValueError as e:
                raise UsageError(str(e))
        return out

    def base(self):
        kind, val = self.take()
        if kind == "atom":
            return self.ring.atom(*val)
        if kind == "number":
            try:
                q = Fraction(val)
            except ZeroDivisionError:
                raise UsageError("zero denominator in %r" % val)
            return self.ring.number(q)
        if (kind, val) == ("op", "("):
            out = self.expr()
            if self.take() != ("op", ")"):
                raise UsageError("unbalanced parentheses")
            return out
        raise UsageError("unexpected token %r" % (val,))


def parse_expression(text, ring=None):
    """The value of an expression; by default in the free polynomial ring."""
    tokens = _tokenize(text)
    if not tokens:
        raise UsageError("empty expression")
    parser = _Parser(tokens, ring or _FreeRing)
    out = parser.expr()
    if parser.peek() is not None:
        raise UsageError("trailing input after expression")
    return out


def _nominal_degrees(text):
    """The nominal degrees of an expression, or None when a product passed
    degree 4 and only the free ring can tell what happens.  Errors are the
    free ring's own: up to the first such product both read alike."""
    ring = _NominalDegrees()
    try:
        degrees = parse_expression(text, ring)
    except UsageError:
        if ring.exceeded:
            return None
        raise
    return None if ring.exceeded else degrees


def _evaluate(text, cfg, degree=None):
    """An expression's value in the ring of cfg; with degree given, it must
    be zero or homogeneous of that degree.  The quotient evaluation runs when
    the nominal degrees settle the check, the free ring otherwise."""
    nominal = _nominal_degrees(text)
    if nominal is None or (degree is not None and not nominal <= {degree}):
        e = parse_expression(text)
        if degree is not None and not e.is_zero() and e.degrees() != [degree]:
            raise UsageError("integrand must be homogeneous of degree %d" % degree)
        return e
    return parse_expression(text, _QuotientRing(chowring.table(cfg)))


def _parse_point(text):
    groups = [g.strip() for g in re.sub(r"^P\[|\]$", "", text.strip()).split(",")]
    if len(groups) != 3 or any(len(g) != 2 or not g.isdigit() for g in groups):
        raise UsageError(
            "point must be written as three pairs, e.g. 12,34,56 or P[12,34,56]"
        )
    try:
        return labels.singular_point(tuple((int(g[0]), int(g[1])) for g in groups))
    except ValueError as e:
        raise UsageError(str(e))


# --------------------------------------------------------------------------
# rendering


def _json_bytes(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_bytes(header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(x) for x in row) + "\n")
    return buf.getvalue()


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError("cannot write %s: %s" % (out_path, e.strerror or e))
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# commands: cmd_*(args, cfg) computes (json object, csv text, exit code) and
# main renders the one --format asks for


def _load_config(path):
    if not path:
        return labels.config_all_p1()
    try:
        return labels.load_config(path)
    except (OSError, ValueError, KeyError) as e:
        raise UsageError("bad config %s: %s" % (path, e))


def _table(cfg, mode):
    """chowring.table(cfg); mode is ignored.  The commands read
    chowring.table; this wrapper is kept only because the benchmark's
    child.py calls it with this signature."""
    return chowring.table(cfg)


def cmd_ranks(args, cfg):
    report = chowring.ranks_report(chowring.table(cfg), args.mode)
    rows = [
        (
            k,
            report["ranks"][k],
            report["admissible_monomials"][k],
            "yes" if k in report["torsion_certified_degrees"] else "no",
        )
        for k in range(5)
    ]
    header = ("degree", "rank", "admissible_monomials", "torsion_certified")
    return report, _csv_bytes(header, rows), 0


def cmd_homology(args, cfg):
    """The unresolved complex unless a --config was given."""
    cx = boundarycomplex.build_complex(cfg if args.config else None)
    report = boundarycomplex.homology_report(cx)
    rows = [
        (d["dim"], d["rank"], ";".join(str(t) for t in d["torsion"]) or "-")
        for d in report["degrees"]
    ]
    return report, _csv_bytes(("dim", "rank", "torsion"), rows), 0


def cmd_integrate(args, cfg):
    e = _evaluate(args.expression, cfg, degree=4)
    value = str(chowring.integrate(e, chowring.table(cfg)))
    report = {
        "expression": args.expression,
        "config": cfg.to_json_dict(),
        "mode": args.mode,
        "value": value,
    }
    return report, value + "\n", 0


def cmd_psi_table(args, cfg):
    if cfg != labels.config_all_p1():
        raise UsageError("the psi table is defined on the all-P1 config")
    rep = classes.psi_table(chowring.table(cfg))
    rows = [(r["orbit_representative"], r["value"]) for r in rep["rows"]]
    report = dict(
        rep,
        mode=args.mode,
        rows=[{"orbit_representative": k, "value": v} for k, v in rows],
    )
    failed = rep["published_mismatches"] or rep["vanishing_rule_violations"]
    return report, _csv_bytes(("orbit_representative", "value"), rows), 1 if failed else 0


def cmd_restrict(args, cfg):
    pt = _parse_point(args.point)
    e = _evaluate(args.expression, cfg)
    fv = chowring.restrict_to_fiber(e, pt, chowring.table(cfg))
    coeffs = [str(c) for c in fv.coeffs]
    report = {
        "point": pt.name(),
        "kind": fv.kind,
        "coefficients": coeffs,
        "pretty": str(fv),
    }
    rows = [(pt.name(), fv.kind, k, c) for k, c in enumerate(coeffs)]
    return report, _csv_bytes(("point", "kind", "degree", "coefficient"), rows), 0


def cmd_picard(args, cfg):
    if cfg != labels.config_all_p1():
        raise UsageError("the Picard basis is computed on the all-P1 config")
    table = chowring.table(cfg)
    basis = classes.picard_m36_basis(table)
    names = [classes.delta_name(label) for label in classes.PICARD_LABELS]
    report = {
        "mode": args.mode,
        "rank": len(basis),
        "m36_chow_ranks": list(chowring.m36_chow_ranks(table)),
        "classes": names,
    }
    return report, _csv_bytes(("class",), [(n,) for n in names]), 0


def cmd_canonical(args, cfg):
    cc = classes.canonical_classes(chowring.table(cfg))
    kinds = (labels.TRIPLE, labels.PAIR, labels.CYCLIC)
    rows = [
        (name, *(str(coeffs[kind]) for kind in kinds))
        for name, coeffs in (("K", classes.K_COEFFS), ("K+B", classes.KB_COEFFS))
    ]
    report = {
        "mode": args.mode,
        "coefficients": {
            name: {"Triple": a, "Pair": b, "CyclicTriple": c}
            for name, a, b, c in rows
        },
        "identity_readings": cc["identity_readings"],
        "kb4": str(cc["kb4"]),
        "restricts_to_zero_on_lines": True,
    }
    header = ("class", "triple_coeff", "pair_coeff", "cyclic_coeff")
    return report, _csv_bytes(header, rows), 0


def cmd_verify(args, _cfg):
    results, ok = verification.run_acceptance(suite=args.suite)
    report = {
        "mode": args.mode,
        "suite": args.suite,
        "ok": ok,
        "criteria": [
            {
                "name": r.name,
                "ok": r.ok,
                "details": {k: str(v) for k, v in r.details.items()},
                "runtime_ms": r.runtime_ms,
            }
            for r in results
        ],
    }
    text = "".join(r.line() + "\n" for r in results)
    text += "all passed\n" if ok else "FAILURES present\n"
    return report, text, 0 if ok else 1


# --------------------------------------------------------------------------


@functools.cache
def _build_parser():
    top = argparse.ArgumentParser(
        prog="m36",
        description="Chow rings of the resolved spaces of six lines in the plane.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, config=True, mode=True):
        if config:
            p.add_argument("--config", help="resolution config JSON path")
        if mode:
            p.add_argument(
                "--mode",
                choices=("exact", "two-prime"),
                default="two-prime",
                help="label echoed in reports; both modes certify every "
                "degree exactly (default two-prime)",
            )
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("ranks", help="rank/torsion report for one config")
    common(p)
    p.set_defaults(fn=cmd_ranks)

    p = sub.add_parser("homology", help="reduced homology of the boundary complex")
    p.add_argument(
        "--unresolved",
        action="store_true",
        help="use the unresolved complex even if --config is given",
    )
    common(p, mode=False)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("integrate", help="integrate a degree-4 class expression")
    p.add_argument("expression")
    common(p)
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("psi-table", help="all quartic psi numbers by orbit")
    common(p)
    p.set_defaults(fn=cmd_psi_table)

    p = sub.add_parser("restrict", help="restrict a class to one exceptional fiber")
    p.add_argument("expression")
    p.add_argument("--point", required=True, help="singular point, e.g. 12,34,56")
    common(p)
    p.set_defaults(fn=cmd_restrict)

    p = sub.add_parser("picard", help="the 36-class Picard basis of the singular space")
    common(p)
    p.set_defaults(fn=cmd_picard)

    p = sub.add_parser("canonical", help="canonical and log-canonical classes")
    common(p)
    p.set_defaults(fn=cmd_canonical)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument(
        "--suite",
        default="acceptance",
        help="acceptance (default), homology, psi-table, or one criterion name",
    )
    common(p, config=False)
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.command == "homology" and args.unresolved:
        args.config = None
    try:
        cfg = _load_config(getattr(args, "config", None))
        report, csv_text, code = args.fn(args, cfg)
        _emit(csv_text if args.format == "csv" else _json_bytes(report), args.out)
        return code
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except chowring.VerificationError as e:
        print("verification failure: %s" % e, file=sys.stderr)
        return 1
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
