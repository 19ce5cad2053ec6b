"""One benchmark process: set up, run the timed work, write the samples.

Usage: python3 child.py JOB_JSON RESULT_JSON SPAWNED_AT_NS

The parent starts a fresh interpreter for every set-up, so the CLI table
cache, the lazy degree-3 upgrade and peak RSS start from zero each time.
SPAWNED_AT_NS is the parent's perf_counter_ns just before the spawn (the
same monotonic clock in every process), so set-up time counts interpreter
start and imports.

A job has the workload, its inputs, a role ("setup" stops after set-up),
and either a time budget or a fixed unit count.  Set-up returns the
workload's distinct units: whole exact builds for certify, small CLI queries
for query.  The timed work cycles through them, once at least and then
until the budget is spent, so each unit may be timed more than once; every
sample is stored under the unit's index.  Traced jobs always use a fixed
count, so their counters repeat exactly for one seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

now = time.perf_counter_ns


class Session:
    def __init__(self, job):
        self.job = job
        self.ops = []  # (unit index, latency_ns, ok)
        self.setup_checks = []
        self.errors = []
        self.tracer = None
        self.upgrade_ns = 0

    def check(self, kind, ok, detail):
        if not ok:
            self.errors.append("%s: %s" % (kind, detail))
        return ok

    def timed(self, key, fn):
        """Run fn() as one timed operation; fn returns (ok, detail)."""
        if self.tracer is not None:
            self.tracer.op += 1
        t0 = now()
        try:
            ok, detail = fn()
        except Exception:  # a raising operation is a failed one
            ok, detail = False, traceback.format_exc(limit=3)
        dt = now() - t0
        self.ops.append((key, dt, self.check("unit %d" % key, ok, detail)))


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# workloads: setup(session) -> list of units, each a function returning
# (ok, detail)


def certify_setup(session):
    """Exact builds of the seeded configs, one unit per config."""
    from m36 import chowring, labels

    def unit(cfg, ranks):
        def build():
            t = chowring.build_quotient(cfg, mode="exact")
            certified = t.torsion_certified_degrees == (0, 1, 2, 3, 4)
            ok = t.ranks == ranks and t.torsion_free and certified
            return ok, "ranks %r torsion_free %r certified %r for %r" % (
                t.ranks, t.torsion_free, t.torsion_certified_degrees, ranks)
        return build

    return [
        unit(labels.config_from_json_dict(c["config"]), tuple(c["ranks"]))
        for c in session.job["inputs"]["configs"]
    ]


def query_setup(session):
    """Build the default-mode all-P1 table through the CLI's own cache, then
    run the degree-3 tests on it: the first exact degree-3 normal form
    upgrades the cached table in place, which is set-up work every session
    that asks a degree-3 question pays once.  One unit per small query."""
    from m36 import chowring, cli, labels

    code, out, err = run_cli(cli, ["ranks"])
    ok = code == 0 and json.loads(out)["ranks"] == [1, 51, 127, 51, 1]
    session.setup_checks.append(session.check("setup", ok, (code, out, err)))
    t0 = now()
    for q in session.job["inputs"]["degree3"]:
        try:
            table = cli._table(labels.config_all_p1(), "two-prime")
            got = chowring.is_zero_in(cli.parse_expression(q["expression"]), table)
            ok, detail = got == q["zero"], (q, got)
        except Exception:  # a raising test is a failed one
            ok, detail = False, traceback.format_exc(limit=3)
        session.setup_checks.append(session.check("zero_test", ok, detail))
    session.upgrade_ns = now() - t0

    def unit(q):
        def query():
            code, out, err = run_cli(cli, q["argv"])
            if code != 0:
                return False, "exit %d: %s" % (code, err)
            got = json.loads(out)
            if "value" in q:
                return Fraction(got["value"]) == Fraction(q["value"]), (q, got["value"])
            return got["coefficients"] == q["coefficients"], (q, got["coefficients"])
        return query

    return [unit(q) for q in session.job["inputs"]["small"]]


WORKLOADS = {"certify": certify_setup, "query": query_setup}


def main(job_path, result_path, spawned_at):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    session = Session(job)
    if job["trace"]:
        import tracing

        session.tracer = tracing.Tracer()
        tracing.install(session.tracer)
    units = WORKLOADS[job["workload"]](session)
    setup_ns = now() - spawned_at
    wall_ns = 0
    if job["role"] == "work":
        start = now()
        budget = job["seconds"] * 1e9
        fixed = job["units"]

        def more(n):
            if fixed:
                return n < fixed
            return n < len(units) or now() - start < budget

        n = 0
        while more(n):
            session.timed(n % len(units), units[n % len(units)])
            n += 1
        wall_ns = now() - start
    result = {
        "setup_s": setup_ns / 1e9,
        "upgrade_s": session.upgrade_ns / 1e9,
        "wall_s": wall_ns / 1e9,
        "ops": session.ops,
        "setup_checks": session.setup_checks,
        "errors": session.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if session.tracer is not None:
        session.tracer.dump(job["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
