"""The benchmark's own test.

    python3 benchmark/selfcheck.py [--workload NAME] [--seed N]

For each workload (both by default, about six minutes):

  * a smoke run of the traced run's fixed work without tracing: every
    answer correct, every end-to-end metric of BENCHMARK.json present;
  * two traced runs on one seed with the same fixed work: every per-layer
    metric present, and identical values for each one not ending in _ms;
  * the tracing overhead as traced wall minus untraced wall of that work,
    printed beside the overhead the wrappers measured themselves.

It also checks that the relation generators written by inputs.py are
exactly m36's sixty degree-1 relations, since the zero tests rely on them.
Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import inputs
import run


def check_relations(failures):
    sys.path.insert(0, str(run.ROOT / "src"))
    from m36 import chowring, cli

    ours = {cli.parse_expression(g) for g in inputs.relation_generators()}
    theirs = set(chowring.linear_relations())
    if ours != theirs or len(ours) != 60:
        failures.append("relation generators differ from chowring.linear_relations()")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}

    failures = []
    check_relations(failures)
    for w in [args.workload] if args.workload else inputs.WORKLOADS:
        units = run.TRACE_UNITS[w]
        smoke = run.run_workload(w, args.seed, 1, 0, units=units)
        if not run.verdict(smoke)["correct"]:
            failures.append("%s: wrong answers %r" % (w, smoke["work"]["errors"]))
        if set(run.end_to_end(smoke)) != e2e_names:
            failures.append("%s: end-to-end metrics differ from BENCHMARK.json" % w)
        traced = [run.per_layer(run.run_workload(w, args.seed, 1, 1)) for _ in range(2)]
        if set(traced[0]) != layer_names:
            failures.append("%s: per-layer metrics differ from BENCHMARK.json" % w)
        for name, (value, _unit) in traced[0].items():
            if not name.endswith("_ms") and traced[1][name][0] != value:
                failures.append("%s: %s differs between traced runs: %r vs %r"
                                % (w, name, value, traced[1][name][0]))
        untraced_ms = run._process_s(smoke["work"]) * 1e3
        for t in traced:
            print("%-13s traced %10.1f ms  untraced %10.1f ms  "
                  "difference %8.1f ms  wrapper time %8.1f ms" % (
                      w, t["trace.wall_ms"][0], untraced_ms,
                      t["trace.wall_ms"][0] - untraced_ms, t["trace.overhead_ms"][0]))
    for f in failures:
        print("FAIL " + f)
    print("selfcheck %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
