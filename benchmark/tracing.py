"""In-memory spans around calls into m36's public functions.

`install()` wraps each traced name where the program looks it up, so no file
of the program changes:

  * `IntEchelon` and `ModpEchelon` methods and `RingElement.__mul__` on the
    class itself (`__rmul__` stays bound to the original);
  * `smith_from_echelon`, `build_complex` and `admissible_monomials` in
    `chowring`, which imports or calls them by name;
  * `chowring.integrate`, `normal_form` and `restrict_to_fiber`, and
    `cli.main` and `cli.parse_expression`, which callers reach through the
    module;
  * the atom constructors of `classes`, all under the one span name
    `classes.atoms`.

`labels` is not wrapped: its functions run once per term, so a wrapper
would cost more than the work.  Their time stays in the callers' self time.

A span is (name, op id, parent, start, end) with an inner interval around
the wrapped call and an outer one around the whole wrapper.  Counts that
need extra work (leads that are not units, coefficient sizes, admissible
terms, lazy upgrades) are taken between the outer and inner marks, so they
add to the tracing overhead and not to any span.
"""

from __future__ import annotations

import json
import time

now = time.perf_counter_ns

# field positions in a span record
NAME, OP, PARENT, OUTER0, INNER0, INNER1, OUTER1 = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.counters = {}
        self.overhead_ns = 0

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def high(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span.  before(args) runs outside the span and
        returns a state passed to after(state, args, result)."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            t0 = now()
            state = before(args) if before else None
            op, parent = self.op, stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t1 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = now()
                stack.pop()
                spans[idx] = (name, op, parent, t0, t1, t2, t2)
            if after:
                after(state, args, result)
            t3 = now()
            # tuples of numbers and strings drop out of the cyclic GC's
            # tracking, so tens of thousands of spans add little to its passes
            spans[idx] = (name, op, parent, t0, t1, t2, t3)
            self.overhead_ns += (t1 - t0) + (t3 - t2)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        """Write the spans as JSON lines, then one line of counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({
                "counters": self.counters,
                "overhead_ns": self.overhead_ns,
            }) + "\n")


def _smith_counts(tracer):
    def before(args):
        pivots = args[0].pivots
        tracer.add("exactla.smith.nonunit_leads",
                   sum(1 for lead, row in pivots.items() if row[lead] != 1))
        tracer.high("exactla.smith.max_coeff_bits", max(
            (abs(v).bit_length() for row in pivots.values() for v in row.values()),
            default=0,
        ))
    return before


def _pivot_count(key, tracer):
    def after(_state, _args, result):
        if result is not None:
            tracer.add(key, 1)
    return after


def _lazy_upgrades(tracer):
    """Degrees whose exact row reduction was still missing before a query
    and present after it."""
    def before(args):
        return [dd.rref is None for dd in args[1].degrees]

    def after(missing, args, _result):
        tracer.add("chowring.lazy_upgrades", sum(
            1 for was, dd in zip(missing, args[1].degrees)
            if was and dd.rref is not None
        ))
    return before, after


def install(tracer):
    """Patch m36 in place; returns nothing, the process is single-use."""
    from m36 import chowring, classes, cli
    from m36.exactla import IntEchelon, ModpEchelon

    w = tracer.wrap

    IntEchelon.insert = w("exactla.int_insert", IntEchelon.insert,
                          after=_pivot_count("exactla.int_insert.pivots", tracer))
    IntEchelon.rref = w("exactla.int_rref", IntEchelon.rref)
    ModpEchelon.insert = w("exactla.modp_insert", ModpEchelon.insert,
                           after=_pivot_count("exactla.modp_insert.pivots", tracer))
    ModpEchelon.kernel_basis = w("exactla.modp_kernel", ModpEchelon.kernel_basis)
    chowring.smith_from_echelon = w("exactla.smith", chowring.smith_from_echelon,
                                    before=_smith_counts(tracer))
    chowring.build_complex = w("boundarycomplex.build_complex", chowring.build_complex)
    chowring.admissible_monomials = w("chowring.admissible_monomials",
                                      chowring.admissible_monomials)

    def record_degrees(_state, _args, table):
        for k in (2, 3, 4):
            tracer.add("chowring.deg%d_ms" % k, table.degrees[k].runtime_ms)

    chowring.build_quotient = w("chowring.build", chowring.build_quotient,
                                after=record_degrees)

    def mul_sizes(_state, args, result):
        a, b = args
        n = len(a.coeffs)
        tracer.add("chowring.mul.term_pairs",
                   n * len(b.coeffs) if isinstance(b, chowring.RingElement) else n)
        tracer.add("chowring.mul.terms_out", len(result.coeffs))

    chowring.RingElement.__mul__ = w("chowring.mul", chowring.RingElement.__mul__,
                                     after=mul_sizes)

    upgrade_before, upgrade_after = _lazy_upgrades(tracer)

    def integrand_terms(args):
        e, t = args
        index = t.degrees[4].index
        tracer.add("chowring.integrate.terms", len(e.coeffs))
        tracer.add("chowring.integrate.admissible_terms",
                   sum(1 for mono in e.coeffs if mono in index))
        return upgrade_before(args)

    chowring.integrate = w("chowring.integrate", chowring.integrate,
                           before=integrand_terms, after=upgrade_after)
    chowring.normal_form = w("chowring.normal_form", chowring.normal_form,
                             before=upgrade_before, after=upgrade_after)
    chowring.restrict_to_fiber = w("chowring.restrict", chowring.restrict_to_fiber)

    cli.main = w("cli.main", cli.main)
    cli.parse_expression = w("cli.parse", cli.parse_expression)
    for name in ("psi", "phi", "delta_triple", "delta_pair", "delta_cyclic",
                 "canonical_divisor", "total_boundary"):
        setattr(classes, name, w("classes.atoms", getattr(classes, name)))


# --------------------------------------------------------------------------
# summary, computed by the parent from the dumped file


LAYERS = (
    "exactla.int_insert", "exactla.int_rref", "exactla.smith",
    "exactla.modp_insert", "exactla.modp_kernel", "chowring.build",
    "boundarycomplex.build_complex", "chowring.admissible_monomials",
    "chowring.mul", "chowring.integrate", "chowring.normal_form",
    "chowring.restrict", "cli.main", "cli.parse", "classes.atoms",
)


def summarize(path):
    """Per-layer calls and self time (span time minus the outer time of its
    direct children), plus the counters."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            spans.append(json.loads(line))
    tail = spans.pop()
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[OUTER1] - rec[OUTER0]
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    for i, rec in enumerate(spans):
        calls[rec[NAME]] += 1
        self_ns[rec[NAME]] += rec[INNER1] - rec[INNER0] - child_ns[i]
    return {
        "calls": calls,
        "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
        "counters": tail["counters"],
        "overhead_ms": tail["overhead_ns"] / 1e6,
        "spans": len(spans),
    }
