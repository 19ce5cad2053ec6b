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

`integrate` and `restrict` evaluate products in the ring of the config,
never in the free polynomial ring.  `restrict` takes each product node by
one chowring.product over all of its factors, and only a product node asks
for the config's table: the restriction reads only the config's fiber
kinds, so `restrict "K+B"` builds no table.  In a fresh process it takes
0.10-0.14 s, against 0.33-0.48 s when it built one (six alternating runs,
2 shared cores, CPython 3.11.7).  `integrate` folds the tree
linearly instead: a sum adds the integrals of its terms, a negation
negates, and a product node is one chowring.integrate_product of its
factors' values, which builds no degree-4 element; a product node among
them, such as a power, gives its own factors to the chain.  On a built
all-P1 table `integrate "(K+B)^4"` takes a median 0.009-0.015 s, against
0.020-0.036 s when the degree-4 product was built and then integrated
(six sittings, alternating, 2 shared cores, CPython 3.11.7), where its
free-ring expansion took half a minute; `restrict "K+B"` takes
0.18-0.29 ms through cli.main in the same sittings.

The expression is parsed once into a tree, which is read twice.  The first
reading gives its nominal degrees: an atom has degree 1, a number degree
0, a sum the union and a product the sums of its factors' degrees.  These
contain every degree the free-ring expansion can have.  When they lie in
{4} (for `restrict`: when no product passes degree 4) the second reading
takes the integral by the linear fold, or the value in the quotient, and
the check is decided.  Otherwise it expands the tree in the free ring,
which decides the homogeneity check and the degree-cap error exactly; a
product that is zero only in the quotient, such as F[12]*F[13] on the
all-P1 config, still makes a degree-2 integrand that is refused.  Syntax
errors and wrong degrees exit 2 before any table is built.  Tables come
from chowring.table, one per config for the whole process; the mode is
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
        if m.group("number"):
            out.append(("number", m.group("number")))
        elif m.group("op"):
            out.append(("op", m.group("op")))
        else:
            atom = m.group("name") or m.group("kb")
            out.append(("atom", (atom, m.group("args") or "")))
    return out


def _atom_element(name, args):
    groups = [g.strip() for g in args.split(",")] if args.strip() else []
    if any(len(g.split()) > 1 for g in groups):
        raise ValueError("space inside a group of digits in %s[%s]" % (name, args))
    digits = [[int(ch) for ch in g] for g in groups]
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
    if name in ("psi", "phi"):
        if len(digits) != 2 or any(len(g) != 1 for g in digits):
            raise ValueError("%s takes two single lines" % name)
        atom = classes.psi if name == "psi" else classes.phi
        return atom(digits[0][0], digits[1][0])
    if name == "delta":
        return classes.delta(digits)
    if name == "K":
        return classes.canonical_divisor()
    if name == "B":
        return classes.total_boundary()
    raise UsageError("unknown atom %r" % name)


class _Parser:
    """Tokens to a tree of ("atom", element), ("number", q), ("neg", a),
    ("sum", [(sign, a), ...]) and ("product", [(a, n), ...]) for the product
    of the a^n.  The lists are flat, so a long sum is a shallow tree; a^n is
    [(a, n)], so a base is read once and a^0 still reads it."""

    def __init__(self, tokens):
        self.tokens = tokens
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
        terms = [(1, self.term())]
        while self.peek() in (("op", "+"), ("op", "-")):
            sign = 1 if self.take()[1] == "+" else -1
            terms.append((sign, self.term()))
        return terms[0][1] if len(terms) == 1 else ("sum", terms)

    def term(self):
        factors = [(self.factor(), 1)]
        while self.peek() == ("op", "*"):
            self.take()
            factors.append((self.factor(), 1))
        return factors[0][0] if len(factors) == 1 else ("product", factors)

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.factor())
        out = self.base()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "number" or "/" in val:
                raise UsageError("exponent must be a nonnegative integer")
            if int(val) > chowring.MAX_DEGREE:
                raise UsageError("exponent exceeds the top degree")
            out = ("product", [(out, int(val))])
        return out

    def base(self):
        kind, val = self.take()
        if kind == "atom":
            return ("atom", _atom_element(*val))
        if kind == "number":
            try:
                return ("number", Fraction(val))
            except ZeroDivisionError:
                raise UsageError("zero denominator in %r" % val)
        if (kind, val) == ("op", "("):
            out = self.expr()
            if self.take() != ("op", ")"):
                raise UsageError("unbalanced parentheses")
            return out
        raise UsageError("unexpected token %r" % (val,))


def _parse(text):
    tokens = _tokenize(text)
    if not tokens:
        raise UsageError("empty expression")
    parser = _Parser(tokens)
    tree = _as_usage_error(parser.expr)
    if parser.peek() is not None:
        raise UsageError("trailing input after expression")
    return tree


def _as_usage_error(fn, *args):
    """fn(*args), the parser or a fold of its tree, with too deep a nesting
    and the ValueErrors of bad labels and of the degree cap as UsageError."""
    try:
        return fn(*args)
    except RecursionError:
        raise UsageError("expression nested too deeply") from None
    except ValueError as e:
        raise UsageError(str(e)) from None


def _nominal_degrees(tree):
    """The nominal degrees of a tree, or None once a product passes degree
    4: the free ring may or may not refuse it."""
    kind, val = tree
    if kind == "atom":
        return {1}
    if kind == "number":
        return {0}
    if kind == "neg":
        return _nominal_degrees(val)
    if kind == "sum":
        terms = [_nominal_degrees(term) for _sign, term in val]
        return None if None in terms else set().union(*terms)
    out = {0}
    for factor, n in val:
        degrees = _nominal_degrees(factor)
        if degrees is None:
            return None
        for _ in range(n):
            out = {x + y for x in out for y in degrees}
            if max(out) > chowring.MAX_DEGREE:
                return None
    return out


def _free_product(factors):
    """The product of the factors in the free ring, folded left to right
    from one."""
    return functools.reduce(operator.mul, factors, chowring.RingElement.one())


def _factors(val, product, splice=False):
    """The values of a product node's factors, each a^n as n copies of a.
    With splice, a factor that is itself a product node gives its own
    factors, n times over, in place of its value."""
    out = []
    for factor, n in val:
        if splice and factor[0] == "product":
            out += _factors(factor[1], product, splice) * n
        else:
            out += [_value(factor, product)] * n
    return out


def _value(tree, product):
    """The value of a tree, each product node taken by product from its
    factors in order: _free_product in the free ring, or chowring.product
    in a quotient."""
    kind, val = tree
    if kind == "atom":
        return val
    if kind == "number":
        return chowring.RingElement.one() * val
    if kind == "neg":
        return -_value(val, product)
    if kind == "sum":
        # the parser gives the first term the sign +1
        (_sign, first), *rest = val
        out = _value(first, product)
        for sign, term in rest:
            v = _value(term, product)
            out = out + v if sign > 0 else out - v
        return out
    return product(_factors(val, product))


def _integral(tree, t):
    """The integral over the ring of t of a tree whose nominal degrees lie
    in {4}, folded linearly: a sum adds the integrals of its terms, a
    negation negates, and a product node is one chowring.integrate_product
    of its factors' values in the quotient, the factors of nested product
    nodes, such as the powers of psi[5,6]^2*psi[6,5]^2, spliced in.  Every
    node of such a tree is one of these three."""
    kind, val = tree
    if kind == "neg":
        return -_integral(val, t)
    if kind == "sum":
        return sum(sign * _integral(term, t) for sign, term in val)
    product = functools.partial(chowring.product, t=t)
    return chowring.integrate_product(_factors(val, product, splice=True), t)


def parse_expression(text):
    """The value of an expression in the free polynomial ring."""
    return _as_usage_error(_value, _parse(text), _free_product)


def _in_quotient(tree, degree=None):
    """Whether the quotient evaluation decides tree: its nominal degrees
    are known and, with degree given, lie in {degree}."""
    nominal = _as_usage_error(_nominal_degrees, tree)
    return nominal is not None and (degree is None or nominal <= {degree})


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
    tree = _parse(args.expression)
    if _in_quotient(tree, 4):
        value = _as_usage_error(_integral, tree, chowring.table(cfg))
    else:
        e = _as_usage_error(_value, tree, _free_product)
        if not e.is_zero() and e.degrees() != [4]:
            raise UsageError("integrand must be homogeneous of degree 4")
        value = chowring.integrate(e, chowring.table(cfg))
    report = {
        "expression": args.expression,
        "config": cfg.to_json_dict(),
        "mode": args.mode,
        "value": str(value),
    }
    return report, "%s\n" % value, 0


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
    tree = _parse(args.expression)
    if _in_quotient(tree):

        def product(factors):
            return chowring.product(factors, chowring.table(cfg))

    else:
        product = _free_product
    e = _as_usage_error(_value, tree, product)
    fv = chowring.restrict_to_fiber(e, pt, cfg)
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
    deltas, ranks = classes.picard_m36(table)
    names = [classes.delta_name(label) for label in classes.PICARD_LABELS]
    report = {
        "mode": args.mode,
        "rank": len(deltas),
        "m36_chow_ranks": list(ranks),
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

    dash = 'one that opens with "-" goes after "--", which ends the options: '
    p = sub.add_parser("integrate", help="integrate a degree-4 class expression")
    p.add_argument("expression", help=dash + 'integrate -- "-psi[1,2]^4"')
    common(p)
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("psi-table", help="all quartic psi numbers by orbit")
    common(p)
    p.set_defaults(fn=cmd_psi_table)

    p = sub.add_parser("restrict", help="restrict a class to one exceptional fiber")
    p.add_argument("expression", help=dash + 'restrict --point 12,34,56 -- "-F[12]"')
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
